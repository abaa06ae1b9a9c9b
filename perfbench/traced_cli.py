"""Run one gpkit CLI command with its layer boundaries traced.

    PYTHONPATH=src python3 perfbench/traced_cli.py SPANS_FILE REQUEST_ID CLI_ARG...

The public names of each layer are wrapped from outside, in every gpkit
module namespace where callers look them up (``gpkit.cli.enumerate_reduced``,
``gpkit.lparam.tensor``, ``gpkit.conjclass.is_regular``, ...), and the
``GPCharacterTable`` methods are wrapped on the class.  The command then runs
through ``gpkit.cli.run`` as one request: its output goes to stdout unchanged
and the process exits with the CLI's code.

Spans (parent, name, start, end) are kept in memory and written to
SPANS_FILE when the command ends: one JSON header line, then the four
columns as native 64-bit integer arrays.  ``run.py`` reads them back.
"""

from __future__ import annotations

import array
import json
import sys
import time
from functools import wraps

# layer -> public names traced wherever a gpkit module holds them.
LAYER_NAMES = {
    "lparam": ("enumerate_reduced", "make_gp_pair"),
    "weilrep": ("tensor",),
    "epsilon": ("eps_half", "eps_numeric_oracle"),
    "conjclass": (
        "verify_union_prop",
        "verify_fiber_lemma",
        "verify_fiber_union",
        "is_in_Xi_reg_V",
        "is_in_C_VW",
        "is_regular",
    ),
    "quadspace": ("pure_inner_forms", "kottwitz_sign", "is_admissible_pair"),
}

# span name -> GPCharacterTable attribute, looked up on the class by callers.
TABLE_METHODS = {
    "lparam.table_build": "__init__",
    "lparam.mask_tables": "mask_tables",
    "lparam.element_of_mask": "element_of_mask",
    "lparam.dichotomy": "dichotomy",
}

MODULES = ("cli", "lparam", "weilrep", "epsilon", "conjclass", "quadspace")


class Tracer:
    """Spans in four parallel columns; the open spans form a stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parent = array.array("q")
        self.name = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self._open = [-1]
        self.counters: dict[str, int] = {}

    def wrap(self, span_name: str, fn):
        name_id = len(self.names)
        self.names.append(span_name)
        parent, name, start, end = self.parent, self.name, self.start, self.end
        open_spans = self._open
        clock = time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(open_spans[-1])
            name.append(name_id)
            end.append(0)
            open_spans.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                open_spans.pop()

        return traced

    def count(self, counter: str, fn):
        self.counters[counter] = 0
        counters = self.counters

        @wraps(fn)
        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def write(self, path: str, header: dict) -> None:
        header = dict(header, names=self.names, spans=len(self.start),
                      counters=self.counters)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.parent, self.name, self.start, self.end):
                column.tofile(fh)


class _CountedModule:
    """Stands in for ``scipy.integrate`` inside gpkit.epsilon, counting quad."""

    def __init__(self, module, quad) -> None:
        self._module = module
        self.quad = quad

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def install(tracer: Tracer) -> None:
    import importlib

    mods = {m: importlib.import_module(f"gpkit.{m}") for m in MODULES}
    for layer, names in LAYER_NAMES.items():
        for attr in names:
            target = getattr(mods[layer], attr, None)
            if target is None:
                continue
            traced = tracer.wrap(f"{layer}.{attr}", target)
            for mod in mods.values():
                if getattr(mod, attr, None) is target:
                    setattr(mod, attr, traced)

    table = getattr(mods["lparam"], "GPCharacterTable", None)
    for span_name, attr in TABLE_METHODS.items():
        if table is not None and attr in vars(table):
            setattr(table, attr, tracer.wrap(span_name, vars(table)[attr]))

    eps = mods["epsilon"]
    integrate = getattr(eps, "integrate", None)
    if integrate is not None:
        quad = tracer.count("epsilon.quad_calls", integrate.quad)
        eps.integrate = _CountedModule(integrate, quad)


def main(argv: list[str]) -> int:
    spans_file, request_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    install(tracer)
    import gpkit.cli

    run = tracer.wrap("cli.run", gpkit.cli.run)
    try:
        code = run(cli_args)
    finally:
        sys.stdout.flush()
        tracer.write(spans_file, {"request": request_id, "argv": cli_args})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
