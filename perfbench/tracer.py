"""Outside-in layer tracer for minkqm.

Wrappers are installed around public functions of minkqm's modules after
the package is imported and before the measured code runs.  A module that
took a name with `from … import` holds its own binding, so every binding
of an original function across the loaded `minkqm` modules is replaced,
not only the one in the defining module.

Spans (name, start, end, parent) are kept in memory; counts are taken at
the same wrappers.  `summarize` turns spans into per-name call counts and
self times (a span's duration minus the time its direct children cover).
Only one thread is traced: the CLI runs with its default `--threads 1`.
"""

from __future__ import annotations

import json
import sys
import time

# (module, function) pairs that get a span, which yields `<module>.<fn>.calls`
# and `<module>.<fn>.self_s`.  The two digit streams are only counted, and
# ResultCache.get/put are wrapped on the class.
SPANNED = [
    ("special", "c_coeff"),
    ("special", "bessel_i1_scaled"),
    ("contfrac", "semiregular_expand"),
    ("contfrac", "eval_semiregular"),
    ("minkowski", "question_mark"),
    ("minkowski", "question_mark_semiregular"),
    ("minkowski", "h_values"),
    ("farey", "farey_moment"),
    ("farey", "farey_generation"),
    ("moments", "moment"),
    ("moments", "v_term"),
    ("moments", "v_term_partial"),
    ("moments", "a_partial_direct"),
    ("moments", "h_integral_identity_check"),
    ("quadrature", "kernel_integral"),
    ("quadrature", "box_tail_bound"),
    ("conjecture", "q_sequence"),
    ("conjecture", "lambda_partial"),
    ("conjecture", "conjecture_m2_report"),
    ("verify", "run_all"),
]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def add(self, name: str, amount: float = 1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, fn, on_call=None):
        """Wrap `fn` so each call records a span; `on_call(args, kwargs)`
        may add counts derived from the arguments."""
        tracer = self

        def wrapper(*args, **kwargs):
            if on_call is not None:
                try:
                    on_call(args, kwargs)
                except (IndexError, KeyError, TypeError):
                    pass  # a changed signature loses the count, never the call
            parent = tracer._stack[-1] if tracer._stack else -1
            rec = [name, tracer.clock(), None, parent]
            tracer.spans.append(rec)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = tracer.clock()
                tracer._stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def summarize(self) -> dict[str, float]:
        """`<name>.calls` and `<name>.self_s` for every span name, plus counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        out = dict(self.counts)
        for i, (name, start, end, _) in enumerate(self.spans):
            if end is None:
                continue
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start) - child_time[i]
        return out

    def dump_spans(self, path: str):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def _rebind(original, replacement) -> None:
    """Replace every binding of `original` in the loaded minkqm modules."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "minkqm" or modname.startswith("minkqm.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of every loaded minkqm module in place."""
    import importlib

    mods = {}
    for m in ("special", "contfrac", "minkowski", "farey", "moments", "quadrature",
              "conjecture", "cache", "verify"):
        try:
            mods[m] = importlib.import_module(f"minkqm.{m}")
        except ImportError:
            pass  # a layer that no longer exists reads 0

    def leaves(args, kwargs):
        n = args[1] if len(args) > 1 else kwargs["n"]
        tracer.add("farey.leaves", 2 ** (n - 2))

    def tuples(args, kwargs):
        ell = args[1] if len(args) > 1 else kwargs["ell"]
        B = args[2] if len(args) > 2 else kwargs["B"]
        tracer.add("moments.digit_tuples", (B - 1) ** ell)

    hooks = {"farey_moment": leaves, "a_partial_direct": tuples}
    for mod, attr in SPANNED:
        original = getattr(mods.get(mod), attr, None)
        if original is not None:
            _rebind(original, tracer.span(f"{mod}.{attr}", original, hooks.get(attr)))

    regular = getattr(mods.get("contfrac"), "regular_digits_int", None)
    semiregular = getattr(mods.get("contfrac"), "semiregular_digits_int", None)

    def regular_digits_int(p, q):
        digits = regular(p, q)
        tracer.add("contfrac.regular_digits_int.digits", len(digits))
        return digits

    def semiregular_digits_int(p, q):
        for b in semiregular(p, q):
            tracer.add("contfrac.semiregular_digits_int.digits")
            yield b

    if regular is not None:
        _rebind(regular, regular_digits_int)
    if semiregular is not None:
        _rebind(semiregular, semiregular_digits_int)

    cls = getattr(mods.get("cache"), "ResultCache", None)
    if cls is None:
        return
    get, put = cls.get, cls.put

    def cache_get(self, key):
        hit = get(self, key)
        tracer.add("cache.hits" if hit is not None else "cache.misses")
        return hit

    cls.get = cache_get
    cls.put = tracer.span("cache.ResultCache.put", put)
