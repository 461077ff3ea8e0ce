"""Traced runs: a cProfile hook folded by layer, and span output.

The profiler is installed from the benchmark's files; nothing under
``src/`` changes.  A function's layer is the ``repro.<package>`` of its
file, and ``core.<module>`` inside ``repro.core``.  Builtins (file
``~``) have no file of their own: their self time is charged to the
layers of their callers, in proportion to the time each caller spent in
them.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
from collections import defaultdict
from typing import Dict, Tuple

#: The layers every later change is judged by, in reporting order.
LAYERS = ("sim", "network", "runtime", "core.client", "core.namespace",
          "core.location", "core.membership", "core.hashing", "core.volume",
          "core.provider", "core.segment", "storage", "kvstore")
_CORE = {name.split(".", 1)[1] for name in LAYERS if name.startswith("core.")}
_TOP = {name for name in LAYERS if "." not in name}
_MARK = os.sep + "repro" + os.sep


def layer_of(filename: str) -> str:
    """The layer of a source file (``other`` when it is none of ours)."""
    at = filename.rfind(_MARK)
    if at < 0:
        return "other"
    parts = filename[at + len(_MARK):].split(os.sep)
    pkg = parts[0]
    if pkg == "core" and len(parts) > 1:
        module = parts[1][:-3] if parts[1].endswith(".py") else parts[1]
        return f"core.{module}" if module in _CORE else "core.other"
    return pkg if pkg in _TOP else "repro.other"


def fold(profile: cProfile.Profile) -> Dict[str, Tuple[float, int]]:
    """``{layer: (self seconds, calls)}`` from one profile."""
    stats = pstats.Stats(profile).stats
    out: Dict[str, list] = defaultdict(lambda: [0.0, 0])
    for (filename, _line, _name), (_cc, nc, tt, _ct, callers) in stats.items():
        if filename != "~":
            cell = out[layer_of(filename)]
            cell[0] += tt
            cell[1] += nc
            continue
        # A builtin: split its self time over the layers that called it.
        spent = sum(c[2] for c in callers.values())
        for (cfile, _l, _n), (_c, cnc, ctt, _ct2) in callers.items():
            cell = out[layer_of(cfile) if cfile != "~" else "other"]
            cell[0] += tt * (ctt / spent) if spent > 0 else 0.0
            cell[1] += cnc
    return {k: (v[0], v[1]) for k, v in out.items()}


def write_spans(path: str, spans) -> None:
    """One JSON line per span: name, start, end (simulated s), parent, ok."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        for name, start, end, parent, ok in spans:
            f.write(json.dumps({"name": name, "start": start, "end": end,
                                "parent": parent, "ok": ok}) + "\n")
