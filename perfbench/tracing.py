"""In-memory span tracer that wraps glmpca's public functions from outside.

The package itself is not instrumented.  ``Tracer.install`` replaces each
traced function with a timing wrapper in every ``glmpca.*`` module
namespace that binds it (``optimizer`` and ``cli`` import their callees by
value, and the package ``__init__`` re-exports them), and replaces the
traced ``Family`` methods on the class.  ``uninstall`` restores the
originals.  Spans are kept in a list and written out only at the end.

A span is (id, parent id, name, start, end) with times from
``time.perf_counter_ns``.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time

# layer -> names of module-level functions traced in that module.
# optimizer._sweep is private, but it is the one boundary that tells
# accepted sweeps from damped retries, so it is traced too when present.
MODULE_FUNCTIONS = {
    "model": ["build_model", "check_data_matrix", "predictor_stats",
              "objective", "gradient_u", "gradient_v", "fisher_info_u",
              "fisher_info_v"],
    "optimizer": ["fit", "_sweep", "update_u_column", "update_v_column",
                  "full_scoring_A", "full_scoring_Gamma"],
    "postprocess": ["project_out_covariates", "orthogonalize", "order_dims"],
    "io": ["read_matrix", "write_result"],
    "cli": ["run_cli"],
}
FAMILY_METHODS = ["inverse_link", "dinverse_link", "variance",
                  "natural_param", "loglik_term"]
# spans whose return values are kept: fallback row counts and the paths
# of written files
KEEP_RETURNS = ("optimizer.full_scoring_A", "optimizer.full_scoring_Gamma",
                "io.write_result")


class Tracer:
    """Records nested call spans for the wrapped functions."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.returns: dict[str, list] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: str, fn, keep_return: bool):
        spans, stack, returns = self.spans, self._stack, self.returns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if keep_return:
                returns.setdefault(name, []).append(out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every traced function in every glmpca module binding it."""
        from glmpca.families import Family

        homes = {layer: importlib.import_module(f"glmpca.{layer}")
                 for layer in MODULE_FUNCTIONS}
        modules = [m for n, m in sys.modules.items()
                   if n == "glmpca" or n.startswith("glmpca.")]
        for layer, names in MODULE_FUNCTIONS.items():
            home = homes[layer]
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                span_name = f"{layer}.{fname}"
                wrapper = self._wrap(span_name, original,
                                     span_name in KEEP_RETURNS)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
        for meth in FAMILY_METHODS:
            original = Family.__dict__[meth]
            self._patched.append((Family, meth, original))
            setattr(Family, meth,
                    self._wrap(f"families.{meth}", original, False))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis -------------------------------------------------------

    def rollup(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        child_ns: dict[int, int] = {}
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        table: dict[str, dict[str, float]] = {}
        for sid, _, name, start, end in self.spans:
            row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += (end - start) * 1e-9
            row["self_s"] += (end - start - child_ns.get(sid, 0)) * 1e-9
        return table

    def dump(self, path) -> None:
        """Write the spans as gzipped TSV (id, parent, name, start_ns,
        end_ns), ordered by id."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for span in sorted(self.spans):
                fh.write("\t".join(map(str, span)) + "\n")
