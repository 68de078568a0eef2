"""Spans around causkit's public functions, recorded from outside the package.

:class:`Tracer` replaces every binding of a traced function in every loaded
``causkit`` module with a wrapper, because modules import each other's
functions by name (``checks`` calls its own ``parse_type`` binding, not
``typesys.parse_type``).  Each wrapper appends one span
``[name, start, end, parent, verdict, extra]`` to an in-memory list; nothing
is written until :meth:`Tracer.dump`.  :meth:`Tracer.uninstall` puts the
original functions back, so traced and untraced passes can alternate in one
process.
"""

from __future__ import annotations

import json
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

from causkit import axioms, backends, checks, cli, core, events, gallery, mll, typesys

# (module or class, attribute): functions whose calls become spans
TRACED = [
    (core, "plug"),
    (core, "tensor_par"),
    (core, "discard_outputs"),
    (core, "permute"),
    (core, "distance"),
    (core, "maxabs"),
    (core, "load_process"),
    (backends, "is_causal"),
    (backends, "discard"),
    (backends, "uniform_state"),
    (backends, "causal_channel_family"),
    (backends, "_scale"),
    (checks, "check_membership"),
    (checks, "check_soc"),
    (checks, "check_nonsignalling"),
    (checks, "check_comb"),
    (checks, "check_order_consistency"),
    (checks, "check_via_totalisations"),
    (checks, "check_one_way"),
    (typesys, "parse_type"),
    (typesys, "normalize"),
    (typesys, "fo_embedding"),
    (events, "check_partition"),
    (events.EventPoset, "down_closed_subsets"),
    (mll, "prove"),
    (mll, "parse_sequent"),
    (mll, "verify_proof"),
    (gallery, "build"),
    (axioms, "run_axiom"),
    (cli, "main"),
]

# generators: each resumption is a span, each yielded item is counted
TRACED_GENERATORS = [(events.EventPoset, "linear_extensions")]


def _span_name(owner, attr: str) -> str:
    module = owner if isinstance(owner, types.ModuleType) else sys.modules[owner.__module__]
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.verdict = -1
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _enter(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.verdict, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _exit(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                rec[5] = type(e).__name__
                raise
            finally:
                tracer._exit(rec)
            if name == "core.plug":
                rec[5] = args[0].data.nbytes + args[1].data.nbytes + result.data.nbytes
            elif name == "events.down_closed_subsets":
                tracer.counts["events.down_closed_subsets.count"] += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                rec = tracer._enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._exit(rec)
                tracer.counts[f"{name}.count"] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- installing -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every binding of the traced functions in every causkit module."""
        modules = [m for n, m in sys.modules.items() if n == "causkit" or n.startswith("causkit.")]
        wrappers = [(o, a, self.wrap) for o, a in TRACED] + [(o, a, self.wrap_generator) for o, a in TRACED_GENERATORS]
        for owner, attr, make in wrappers:
            orig = getattr(owner, attr)
            wrapped = make(_span_name(owner, attr), orig)
            self._set(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is orig and not (module is owner and binding == attr):
                        self._set(module, binding, wrapped)
        # run_all reaches the axiom checks through this table, not run_axiom
        for key, fn in list(axioms._RUNNERS.items()):
            axioms._RUNNERS[key] = self.wrap(f"axioms.{key}", fn)
            self._saved.append((axioms._RUNNERS, key, fn))
        post_init = core.Process.__post_init__

        def counted(p):
            self.counts["core.Process.constructed"] += 1
            post_init(p)

        self._set(core.Process, "__post_init__", counted)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._saved.clear()

    # -- results ----------------------------------------------------------------

    def aggregate(self, first: int, last: int) -> dict:
        """Calls, total time and self time per span name over the spans with
        index ``first <= i < last`` (one traced pass), plus the counts derived
        from the span tree, also broken down by verdict."""
        spans = self.spans
        child: defaultdict = defaultdict(float)
        for i in range(first, last):
            child[spans[i][3]] += spans[i][2] - spans[i][1]
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        tuples: Counter = Counter()
        blowups: Counter = Counter()
        plug_bytes = 0
        in_soc: dict[int, bool] = {}
        for i in range(first, last):
            name, start, end, parent, verdict, extra = spans[i]
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
            in_soc[i] = name == "checks.check_soc" or in_soc.get(parent, False)
            if name == "core.plug" and isinstance(extra, int):
                plug_bytes += extra
            elif name == "backends.is_causal" and in_soc.get(parent, False):
                tuples[verdict] += 1
            elif name == "checks.check_soc" and extra == "CombinatorialBlowup":
                blowups[verdict] += 1
        return {
            "calls": dict(calls),
            "total": dict(total),
            "self": dict(own),
            "core.plug.bytes": plug_bytes,
            "checks.check_soc.tuples": sum(tuples.values()),
            "checks.blowups": sum(blowups.values()),
            "tuples_by_verdict": dict(tuples),
            "blowups_by_verdict": dict(blowups),
        }

    def dump(self, path: str, header: dict, first: int, last: int) -> None:
        """Write the header line, then one JSON array per span with index
        ``first <= i < last``; parent indices count from ``first``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, verdict, extra in self.spans[first:last]:
                fh.write(json.dumps([name, start, end, parent - first if parent >= 0 else -1, verdict, extra]) + "\n")
