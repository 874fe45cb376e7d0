"""JSON file formats and report serialization.

Kernel files:   {"order": k, "dim": n, "entries": [{"idx": [...], "coef": c}, ...]}
Chaos files:    {"dim": n, "constant": c, "kernels": [kernel objects]}
Reports:        {"experiment": ..., "seed": ..., "rows": [...], "verdict": ..., "notes": [...]}
Estimates:      {"method": ..., "value": ..., "ci": [lo, hi], "n": [...]}

The idx arrays must be sorted ascending; order, dim and idx labels must
be integers, and coef and constant finite numbers (a bool is neither).
The parser rejects other input and reports the offending location
JSON-pointer style.  value() and field() are the one set of JSON field
checks; the CLI reads its configs through them too, and load_config()
records which keys were read so that reject_unread() can refuse the rest.
Writes go through a temp file and an atomic rename, and serialization
sorts keys, so identical runs produce byte-identical files.  Nothing
non-finite is written: serialization refuses NaN and infinities, naming
the first one JSON-pointer style, before any file is created.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile

import numpy as np

from .chaos import ChaosElement
from .experiments import ExperimentReport
from .kernels import Index, SymmetricKernel, make_kernel


class SchemaError(ValueError):
    """Input does not match the documented file or config schema."""


_REQUIRED = object()
_KINDS = {int: "an integer", float: "a number", str: "a string", list: "a list",
          dict: "an object", Index: "a list of integers"}


def _is(val, kind) -> bool:
    if kind is Index:
        return isinstance(val, list) and all(_is(v, int) for v in val)
    return not isinstance(val, bool) and isinstance(val, (int, float) if kind is float else kind)


def value(val, kind, where: str):
    """val, after checking that it is a kind; where names it JSON-pointer style.

    kind is int, float (a finite number, returned as a float), str, list,
    dict, Index (a list of integers, checked as one value), [k] (a list
    whose every entry is a k) or None (anything).  A bool is never a
    number, and json reads NaN, Infinity and 1e400 as non-finite numbers.
    """
    if kind is None:
        return val
    if isinstance(kind, list):
        return [value(v, kind[0], f"{where}/{i}") for i, v in enumerate(value(val, list, where))]
    if not _is(val, kind):
        raise SchemaError(f"{where}: expected {_KINDS[kind]}")
    if kind is not float:
        return val
    try:
        out = float(val)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise SchemaError(f"{where}: expected a finite number, got {val!r}")
    return out


def field(obj, key: str, kind, where: str, default=_REQUIRED, nonempty: bool = False):
    """Field key of the object obj, checked by value(); default if the field
    is absent and a default is given.  nonempty rejects an empty list."""
    value(obj, dict, where)
    if key not in obj:
        if default is _REQUIRED:
            raise SchemaError(f"{where}/{key}: missing required field")
        return default
    out = value(obj[key], kind, f"{where}/{key}")
    if nonempty and not out:
        raise SchemaError(f"{where}/{key}: expected a non-empty list")
    return out


class _ReadDict(dict):
    """A JSON object that records the keys read through obj[key]."""

    def __init__(self, obj: dict):
        super().__init__(obj)
        self.read: set[str] = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def reject_unread(obj, where: str) -> None:
    """Raise SchemaError naming the first key of a load_config() tree that
    was never read with obj[key], depth first in document order."""
    if isinstance(obj, _ReadDict):
        for key, val in dict.items(obj):
            if key not in obj.read:
                raise SchemaError(f"{where}/{key}: unknown field")
            reject_unread(val, f"{where}/{key}")
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            reject_unread(val, f"{where}/{i}")


def kernel_to_dict(ker: SymmetricKernel) -> dict:
    entries = [{"idx": list(idx), "coef": c}
               for idx, c in sorted(ker.entries.items())]
    return {"order": ker.order, "dim": ker.dim, "entries": entries}


def kernel_from_dict(obj: dict, where: str = "/kernel") -> SymmetricKernel:
    order = field(obj, "order", int, where)
    dim = field(obj, "dim", int, where)
    raw = []
    for i, ent in enumerate(field(obj, "entries", [dict], where)):
        loc = f"{where}/entries/{i}"
        idx = field(ent, "idx", Index, loc)
        coef = field(ent, "coef", float, loc)
        if any(b < a for a, b in zip(idx, idx[1:])):
            raise SchemaError(f"{loc}/idx: must be sorted ascending, got {idx}")
        raw.append((tuple(idx), coef))
    try:
        return make_kernel(order, dim, raw)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def chaos_to_dict(fel: ChaosElement) -> dict:
    return {"dim": fel.dim, "constant": fel.constant,
            "kernels": [kernel_to_dict(fel.kernels[k]) for k in sorted(fel.kernels)]}


def chaos_from_dict(obj: dict, where: str = "/chaos") -> ChaosElement:
    dim = field(obj, "dim", int, where)
    if dim < 1:
        raise SchemaError(f"{where}/dim: must be >= 1, got {dim}")
    constant = field(obj, "constant", float, where, default=0.0)
    kobjs = field(obj, "kernels", list, where, default=[])
    kernels = {}
    for i, kobj in enumerate(kobjs):
        ker = kernel_from_dict(kobj, f"{where}/kernels/{i}")
        if ker.dim != dim:
            raise SchemaError(f"{where}/kernels/{i}/dim: {ker.dim} != element dim {dim}")
        if ker.order in kernels:
            raise SchemaError(f"{where}/kernels/{i}/order: duplicate order {ker.order}")
        kernels[ker.order] = ker
    return ChaosElement(dim, constant, kernels)


def report_to_dict(rep: ExperimentReport) -> dict:
    return {"experiment": rep.experiment, "seed": rep.seed, "rows": rep.rows,
            "verdict": rep.verdict, "notes": rep.notes}


def report_from_dict(obj: dict, where: str = "/report") -> ExperimentReport:
    return ExperimentReport(
        experiment=field(obj, "experiment", str, where),
        seed=field(obj, "seed", int, where),
        rows=field(obj, "rows", [dict], where),
        verdict=field(obj, "verdict", str, where),
        notes=field(obj, "notes", [str], where, default=[]))


def _nonfinite(obj, where: str) -> str | None:
    """Location of the first NaN or infinity in obj, in sorted-key order."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else where
    if isinstance(obj, dict):
        items = ((key, obj[key]) for key in sorted(obj))
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return None
    for key, val in items:
        found = _nonfinite(val, f"{where}/{key}")
        if found is not None:
            return found
    return None


def _json(obj, where: str, **kwargs) -> str:
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False, **kwargs)
    except ValueError:
        loc = _nonfinite(obj, where)
        if loc is None:
            raise
        raise SchemaError(f"{loc}: expected a finite number") from None


def dumps(obj: dict, where: str = "") -> str:
    """obj as sorted, indented JSON; SchemaError names a non-finite value."""
    return _json(obj, where, indent=2) + "\n"


def write_atomic(path: str, write, newline: str | None = None) -> None:
    """Call write(fh) on a temp file in the target directory, then rename it
    over path, so readers see the old file or the whole new one."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline=newline) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(obj: dict, path: str, where: str = "") -> None:
    text = dumps(obj, where)
    write_atomic(path, lambda fh: fh.write(text))


def load_json(path: str, object_hook=None) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh, object_hook=object_hook)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
        except RecursionError:
            raise SchemaError(f"{path}: invalid JSON (nested too deeply)") from None


def load_config(path: str) -> dict:
    """A JSON config whose objects record the keys read; see reject_unread()."""
    return load_json(path, object_hook=_ReadDict)


def load_kernel(path: str) -> SymmetricKernel:
    return kernel_from_dict(load_json(path), where="")


def save_kernel(ker: SymmetricKernel, path: str) -> None:
    write_json_atomic(kernel_to_dict(ker), path, "kernel")


def load_chaos(path: str) -> ChaosElement:
    return chaos_from_dict(load_json(path), where="")


def save_chaos(fel: ChaosElement, path: str) -> None:
    write_json_atomic(chaos_to_dict(fel), path, "chaos")


def load_report(path: str) -> ExperimentReport:
    return report_from_dict(load_json(path), where="")


def save_report(rep: ExperimentReport, path: str) -> None:
    write_json_atomic(report_to_dict(rep), path, "report")


def save_rows_csv(rep: ExperimentReport, path: str) -> None:
    """The report rows as CSV: one column per row key, each cell as JSON."""
    cols: list[str] = []
    for row in rep.rows:
        for key in row:
            if key not in cols:
                cols.append(key)
    cells = [[_json(row.get(c), f"report/rows/{i}/{c}") for c in cols]
             for i, row in enumerate(rep.rows)]

    def write(fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(cols)
        writer.writerows(cells)

    write_atomic(path, write, newline="")


def save_samples_csv(values: np.ndarray, path: str) -> None:
    """One row per sample; header 'value' for scalars, 'x1,...' for vectors.
    Samples holding a NaN or an infinity are refused before any file exists."""
    vals = np.asarray(values)
    bad = np.argwhere(~np.isfinite(vals))
    if bad.size:
        raise SchemaError(f"samples/{'/'.join(map(str, bad[0]))}: expected a finite number")

    def write(fh) -> None:
        writer = csv.writer(fh)
        if vals.ndim == 1:
            writer.writerow(["value"])
            for v in vals:
                writer.writerow([repr(float(v))])
        else:
            writer.writerow([f"x{i + 1}" for i in range(vals.shape[1])])
            for row in vals:
                writer.writerow([repr(float(v)) for v in row])

    write_atomic(path, write, newline="")
