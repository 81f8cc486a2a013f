"""Outside-in span tracer for the hardylab package.

The tracer wraps named public functions of the package from outside: every
``hardylab.*`` module attribute (and every value of a module-level dict or
list) bound to a traced function is replaced by a wrapper that records a
span.  The package itself is not changed.  A name a later version of the
package no longer defines is reported as absent instead of failing.

Spans are kept in memory as ``(name, start, end, parent)`` rows plus a small
counter dict, and written out once when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, function) pairs traced, in the layer order of the package
TRACED = (
    ("functions", "zeros_in_disk"),
    ("functions", "feature_moduli"),
    ("fields", "w_values"),
    ("fields", "grad_w_values"),
    ("fields", "g_values"),
    ("fields", "radial_deriv_w_values"),
    ("accum", "kahan_sum"),
    ("accum", "tree_sum"),
    ("quadrature", "circle_mean"),
    ("quadrature", "circle_mean_deriv"),
    ("quadrature", "disk_integral_G"),
    ("quadrature", "disk_integral_W"),
    ("quadrature", "ring_integral"),
    ("identities", "check_growth_identity"),
    ("identities", "check_log_r_identity"),
    ("identities", "check_log_unit_identity"),
    ("identities", "check_weighted_area_identity"),
    ("identities", "check_hardy_stein"),
    ("identities", "check_area_limit_identity"),
    ("identities", "ring_limit_probe"),
    ("asymptotics", "rate_probe"),
    ("asymptotics", "membership_scan"),
    ("asymptotics", "monotonicity_check"),
    ("asymptotics", "logconvexity_check"),
    ("parsing", "parse_function"),
    ("report", "write_report"),
    ("report", "body_lines"),
    ("cli", "main"),
    ("golden", "golden_entries"),
)

FIELD_SPANS = ("fields.w_values", "fields.grad_w_values", "fields.g_values",
               "fields.radial_deriv_w_values")
DISK_SPANS = ("quadrature.disk_integral_G", "quadrature.disk_integral_W")
CIRCLE_SPANS = ("quadrature.circle_mean", "quadrature.circle_mean_deriv")
FINITE_CHECKS = tuple(
    f"identities.{n}" for n in ("check_growth_identity", "check_log_r_identity",
                                "check_log_unit_identity", "check_weighted_area_identity",
                                "check_hardy_stein")
)
FAMILIES = ("poly", "blaschke", "binom", "rat")
_FAMILY_OF_CLASS = {"Polynomial": "poly", "BlaschkeProduct": "blaschke",
                    "Binomial": "binom", "Rational": "rat"}


def family_of(f) -> str | None:
    """Family tag of a function object; a scaled rotation counts as its inner family."""
    while type(f).__name__ == "ScaledRotation":
        f = f.inner
    return _FAMILY_OF_CLASS.get(type(f).__name__)


class Tracer:
    """Records spans around the traced functions of an imported package."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.rows: list[list] = []  # [name index, start, end, parent row, info]
        self.absent: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every traced function the imported package defines."""
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "hardylab" or key.startswith("hardylab."))
        ]
        for mod_name, fn_name in TRACED:
            name = f"{mod_name}.{fn_name}"
            try:
                module = importlib.import_module(f"hardylab.{mod_name}")
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(module, fn_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(original, name, len(self.names))
            self.names.append(name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                    elif isinstance(value, dict):
                        for key, item in value.items():
                            if item is original:
                                value[key] = wrapper
                    elif isinstance(value, list):
                        for i, item in enumerate(value):
                            if item is original:
                                value[i] = wrapper

    def _wrap(self, fn, name: str, name_index: int):
        rows, stack = self.rows, self._stack
        clock = time.perf_counter
        if name in FIELD_SPANS:
            def info_of(args, result):
                z = args[2] if len(args) > 2 else None
                return {"points": int(getattr(z, "size", 1)), "family": family_of(args[0])}
        elif name in DISK_SPANS or name in CIRCLE_SPANS:
            def info_of(args, result):
                return {"nodes": getattr(result, "nodes", 0),
                        "levels": getattr(result, "levels", 0),
                        "converged": getattr(result, "converged", True)}
        else:
            info_of = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = [name_index, 0.0, 0.0, stack[-1] if stack else -1, None]
            index = len(rows)
            rows.append(row)
            stack.append(index)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                row[2] = clock()
                row[4] = {"error": True}
                raise
            finally:
                stack.pop()
            row[2] = clock()
            if info_of is not None:
                row[4] = info_of(args, result)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, info."""
        with open(path, "w", encoding="utf-8") as fh:
            for name_index, start, end, parent, info in self.rows:
                fh.write(json.dumps([self.names[name_index], start, end, parent, info]) + "\n")


def _zeroed() -> dict:
    return {"calls": 0, "total_s": 0.0, "self_s": 0.0}


def layer_stats(tracer: Tracer) -> dict:
    """Per-span aggregates: calls, total and self time, and the counters."""
    rows = tracer.rows
    child_time = [0.0] * len(rows)
    field_points = [0] * len(rows)  # field points beneath each span
    for row in reversed(rows):  # children come after their parent
        parent = row[3]
        if parent >= 0:
            child_time[parent] += row[2] - row[1]
    for index in range(len(rows) - 1, -1, -1):
        name_index, _, _, parent, info = rows[index]
        if tracer.names[name_index] in FIELD_SPANS and info:
            field_points[index] += info["points"]
        if parent >= 0:
            field_points[parent] += field_points[index]
    stats = {name: _zeroed() for name in tracer.names}
    for index, (name_index, start, end, parent, info) in enumerate(rows):
        name = tracer.names[name_index]
        s = stats[name]
        s["calls"] += 1
        s["total_s"] += end - start
        own = end - start - child_time[index]
        s["self_s"] += own
        if info is None:
            continue
        if info.get("error"):
            s["errors"] = s.get("errors", 0) + 1
            continue
        if name in FIELD_SPANS:
            s["points"] = s.get("points", 0) + info["points"]
            fam = info["family"]
            if fam is not None:
                s.setdefault("family_points", {}).setdefault(fam, 0)
                s["family_points"][fam] += info["points"]
                s.setdefault("family_self_s", {}).setdefault(fam, 0.0)
                s["family_self_s"][fam] += own
        else:
            s["nodes"] = s.get("nodes", 0) + info["nodes"]
            s["levels"] = s.get("levels", 0) + info["levels"]
            s["unconverged"] = s.get("unconverged", 0) + (not info["converged"])
            if name in DISK_SPANS:
                s["field_points"] = s.get("field_points", 0) + field_points[index]
    return stats


def disk_integrals_per_check(tracer: Tracer) -> float:
    """Disk-integral spans beneath the five finite checkers, per checker call."""
    rows = tracer.rows
    check_index = {tracer.names.index(n) for n in FINITE_CHECKS if n in tracer.names}
    disk_index = {tracer.names.index(n) for n in DISK_SPANS if n in tracer.names}
    checks = disks = 0
    for row in rows:
        if row[0] in check_index:
            checks += 1
        elif row[0] in disk_index:
            parent = row[3]
            while parent >= 0 and rows[parent][0] not in check_index:
                parent = rows[parent][3]
            disks += parent >= 0
    return disks / checks if checks else 0.0


def per_layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics named `<module>.<function>.<stat>`.

    Functions the package no longer defines produce no metrics.  Ratios over
    zero calls or points read 0.
    """
    out: dict[str, tuple[float, str]] = {}

    def put(name, key, value, unit):
        out[f"{name}.{key}"] = (value, unit)

    for name, s in layer_stats(tracer).items():
        calls = s["calls"]
        put(name, "calls", calls, "count")
        put(name, "self_s", s["self_s"], "s")
        if name in FIELD_SPANS:
            points = s.get("points", 0)
            put(name, "points", points, "count")
            put(name, "pts_per_call", points / calls if calls else 0.0, "count")
            if name != "fields.grad_w_values":
                for fam in FAMILIES:
                    fam_points = s.get("family_points", {}).get(fam, 0)
                    fam_self = s.get("family_self_s", {}).get(fam, 0.0)
                    put(name, f"ns_per_pt.{fam}",
                        1e9 * fam_self / fam_points if fam_points else 0.0, "ns")
        if name in DISK_SPANS or name in CIRCLE_SPANS or name.startswith(
            ("identities.", "asymptotics.")
        ) or name == "quadrature.ring_integral":
            put(name, "total_s", s["total_s"], "s")
        if name in DISK_SPANS or name in CIRCLE_SPANS:
            put(name, "nodes", s.get("nodes", 0), "count")
            put(name, "unconverged", s.get("unconverged", 0), "count")
        if name in DISK_SPANS:
            nodes = s.get("nodes", 0)
            put(name, "levels", s.get("levels", 0), "count")
            put(name, "field_points", s.get("field_points", 0), "count")
            put(name, "points_per_node", s.get("field_points", 0) / nodes if nodes else 0.0,
                "ratio")
        if name in DISK_SPANS or name == "quadrature.ring_integral":
            put(name, "errors", s.get("errors", 0), "count")
    out["identities.disk_integrals_per_check"] = (disk_integrals_per_check(tracer), "ratio")
    return out
