"""Timed wrappers around calls into backhaul's modules, swapped in from outside.

Nothing in the program is instrumented. `Patcher` replaces a function or
method with a wrapper and puts the original back afterwards. A module-level
function is replaced in every backhaul module that holds it, because
`roles` imports `sign`, `verify`, `hash_packet_set` and the Merkle helpers
by name, `netsim` imports `keygen`, `report` and `ladder` import
`run_scenario`, and `cli` imports `parse_scenario`: patching only the
defining module would miss those callers.

`Tracer` records one span per wrapped call. Spans are folded into per-name
totals as they close (calls, inclusive seconds, seconds covered by child
spans), because a single run makes tens of thousands of calls; the self
time of a layer is its inclusive time minus its children's.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function, span name); several functions may share a span name
FUNCTION_SPANS = (
    ("crypto", "sign", "crypto.sign"),
    ("crypto", "verify", "crypto.verify"),
    ("crypto", "hash_packet_set", "crypto.hash_packet_set"),
    ("crypto", "merkle_root", "crypto.merkle"),
    ("crypto", "merkle_prove", "crypto.merkle"),
    ("crypto", "merkle_verify", "crypto.merkle"),
    ("crypto", "keygen", "crypto.keygen"),
    ("wire", "encode", "wire.encode"),
    ("wire", "bitmap_from_sequences", "wire.bitmap"),
    ("wire", "sequences_from_bitmap", "wire.bitmap"),
    ("config", "parse_scenario", "config.parse_scenario"),
    ("netsim", "run_scenario", "netsim.run_scenario"),
    ("report", "build_report", "report.build_report"),
    ("report", "dump_report", "report.dump_report"),
)

# (module, class, method, span name, name counting calls that return true)
METHOD_SPANS = (
    ("roles", "Challenger", "__init__", "roles.challenger_init", None),
    ("roles", "Prover", "on_probe", "roles.on_probe", None),
    ("roles", "Prover", "build_responses", "roles.build_responses", None),
    ("roles", "Verifier", "on_dispute", "roles.on_dispute", "roles.disputes_upheld"),
    ("netsim", "EventLoop", "run", "netsim.loop", None),
    ("netsim", "FifoLink", "send", "netsim.link", None),
    ("adversary", "AttackPlan", "sends_for", "adversary.sends_for", None),
    ("adversary", "AttackPlan", "dispute_for", "adversary.dispute_for", None),
)

# (module, class, property, span name)
PROPERTY_SPANS = (
    ("schedule", "ChallengeParams", "signatures_per_challenger", "schedule.sigs_per_challenger"),
)

# Counted but not timed: called tens of thousands of times per run, each
# call too short for a clock read to mean anything.
HEAP_PUSH = ("netsim", "EventLoop", "at", "netsim.heap_pushes")
RATE_FN = "netsim.rate_fn"


def backhaul_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if name == "backhaul" or name.startswith("backhaul.")
    ]


class Patcher:
    """Swaps attributes of backhaul modules and classes; `restore` undoes all."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module, attr: str, make_wrapper) -> None:
        """Replace module.attr, and every other binding of the same object."""
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for mod in backhaul_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)

    def method(self, cls, attr: str, make_wrapper) -> None:
        self._set(cls, attr, make_wrapper(cls.__dict__[attr]))

    def prop(self, cls, attr: str, make_wrapper) -> None:
        self._set(cls, attr, property(make_wrapper(cls.__dict__[attr].fget)))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """Per-name span totals: [calls, inclusive seconds, child seconds]."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self._stack: list[float] = []
        self._patcher = Patcher()

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def span(self, name: str, true_results: str | None = None):
        """Decorator factory: time each call as a span named `name`.

        With `true_results`, also count under that name the calls whose
        result is true.
        """
        stat = self._stat(name)
        hits = self._stat(true_results) if true_results else None
        stack = self._stack
        clock = time.perf_counter

        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - t0
                    stat[2] += stack.pop()
                    if stack:
                        stack[-1] += elapsed
                    stat[0] += 1
                    stat[1] += elapsed
                if hits is not None and result:
                    hits[0] += 1
                return result

            return traced

        return wrap

    def counter(self, name: str):
        """Decorator factory: count calls under `name` without timing them."""
        stat = self._stat(name)

        def wrap(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stat[0] += 1
                return fn(*args, **kwargs)

            return counted

        return wrap

    def install(self, bh) -> None:
        """Wrap every listed layer of the imported program `bh`."""
        p = self._patcher
        for mod, attr, name in FUNCTION_SPANS:
            p.function(getattr(bh, mod), attr, self.span(name))
        for mod, cls, attr, name, true_results in METHOD_SPANS:
            p.method(getattr(getattr(bh, mod), cls), attr, self.span(name, true_results))
        for mod, cls, attr, name in PROPERTY_SPANS:
            p.prop(getattr(getattr(bh, mod), cls), attr, self.span(name))
        mod, cls, attr, name = HEAP_PUSH
        p.method(getattr(getattr(bh, mod), cls), attr, self.counter(name))
        count_rate = self.counter(RATE_FN)

        def counting_rate_fn(make_rate_fn):
            @functools.wraps(make_rate_fn)
            def make(*args, **kwargs):
                return count_rate(make_rate_fn(*args, **kwargs))

            return make

        p.function(bh.netsim, "make_rate_fn", counting_rate_fn)

    def uninstall(self) -> None:
        self._patcher.restore()

    def reset(self) -> None:
        # zero in place: the wrappers hold references to these lists
        for stat in self.stats.values():
            stat[0], stat[1], stat[2] = 0, 0.0, 0.0

    def snapshot(self) -> dict[str, tuple[int, float, float]]:
        return {name: tuple(stat) for name, stat in self.stats.items()}
