"""JSON encodings for data files and result tables.

Data files look like

    {
      "hbar": {"mode": "symbolic", "window": [-6, 6]}
            | {"mode": "rational", "value": "1/2"},
      "caps": {"weight": 4, "x_order": 4, "z_order": 4},
      "c": {"0": ["1", "1/2"], "1": ["0", "2"], ...}     # tau-side data
      # or "f": {"0": [...], "1": [...], ...}            # F-side data
      # or "cauchy": {"0": [...], "1": [...], ...}       # plain derivatives
    }

x-coefficient lists are lowest degree first; the list length encodes the
valid order (length v+1 means trustworthy through x^v).  Partition-keyed
tables use the "p1,p2,..." key format with "" for the empty diagram.
"""

from __future__ import annotations

import json

from .errors import HbarkpError
from .fbuild import FData, FSeries
from .hscalar import HContext, default_window, scalar_from_json, scalar_to_json
from .partitions import Partition
from .taubuild import TauData, TauSeries
from .xseries import XSeries


class DataFormatError(HbarkpError, ValueError):
    """A document that does not hold what its command needs."""


def hbar_to_json(ctx: HContext) -> dict:
    if ctx.is_numeric:
        return {"mode": "rational", "value": str(ctx.value)}
    return {"mode": "symbolic", "window": [ctx.lo, ctx.hi]}


def _exact_int(value) -> int:
    """A JSON integer; floats and booleans are refused."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def hbar_from_json(obj) -> HContext:
    """The hbar entry of a document: a rational value is given as text, so
    that no float reaches the exact engine."""
    try:
        mode = obj["mode"]
        if mode == "rational":
            value = obj["value"]
            if not isinstance(value, str):
                raise TypeError("the hbar value must be text")
            return HContext.numeric(value)
        if mode == "symbolic":
            lo, hi = obj["window"]
            return HContext.symbolic(_exact_int(lo), _exact_int(hi))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad hbar entry: {obj!r}") from exc
    raise DataFormatError(f"unknown hbar mode: {mode!r}")


def caps_from_json(obj) -> tuple[int, int, int]:
    try:
        return (_exact_int(obj["weight"]), _exact_int(obj["x_order"]),
                _exact_int(obj.get("z_order", 0)))
    except (AttributeError, KeyError, TypeError) as exc:
        raise DataFormatError(f"bad caps: {obj!r}") from exc


def caps_to_json(weight, x_order, z_order) -> dict:
    return {"weight": weight, "x_order": x_order, "z_order": z_order}


def xseries_to_json(s: XSeries) -> list:
    return [scalar_to_json(c) for c in s.coeffs]


def xseries_from_json(ctx: HContext, W: int, X: int, lst) -> XSeries:
    """A series of x cap ``X`` in a document of weight cap ``W``; hbar
    exponents written in it must lie in ``default_window(W)``."""
    if not isinstance(lst, list):
        raise DataFormatError(f"series must be a list: {lst!r}")
    window = default_window(W)
    coeffs = [scalar_from_json(ctx, v, window) for v in lst]
    valid = min(len(coeffs) - 1, X) if coeffs else X
    return XSeries(ctx, X, coeffs, valid=valid)


def _indexed_series(ctx, W, X, mapping, what) -> list[XSeries]:
    if not isinstance(mapping, dict):
        raise DataFormatError(f"{what} must be an object")
    try:
        idx = sorted(int(k) for k in mapping)
    except ValueError as exc:
        raise DataFormatError(f"non-integer index in {what}") from exc
    if idx != list(range(len(idx))) or not idx:
        raise DataFormatError(f"{what} must be indexed 0..K without gaps")
    return [xseries_from_json(ctx, W, X, mapping[str(k)]) for k in idx]


def document_context(doc) -> tuple[HContext, int, int, int]:
    ctx = hbar_from_json(doc.get("hbar", {}))
    W, X, Z = caps_from_json(doc.get("caps", {}))
    if W < 1 or X < 0 or Z < 0:
        raise DataFormatError("caps must be positive")
    return ctx, W, X, Z


def tau_data_from_document(doc) -> TauData:
    ctx, W, X, _ = document_context(doc)
    if "c" not in doc:
        raise DataFormatError('tau data need a "c" table')
    series = _indexed_series(ctx, W, X, doc["c"], '"c"')
    return TauData(ctx, W, X, tuple(series))


def f_data_from_document(doc) -> FData:
    ctx, W, X, _ = document_context(doc)
    if "f" not in doc:
        raise DataFormatError('F data need an "f" table')
    series = _indexed_series(ctx, W, X, doc["f"], '"f"')
    return FData(ctx, W, X, series[0], tuple(series[1:]))


def cauchy_from_document(doc):
    """Plain data: F(x;0) under key "0", d_k F|_0 under "k"."""
    ctx, W, X, _ = document_context(doc)
    if "cauchy" not in doc:
        raise DataFormatError('plain data need a "cauchy" table')
    series = _indexed_series(ctx, W, X, doc["cauchy"], '"cauchy"')
    return ctx, W, X, series[0], tuple(series[1:])


def tau_data_to_document(data: TauData, z_order=0) -> dict:
    return {
        "hbar": hbar_to_json(data.ctx),
        "caps": caps_to_json(data.weight_cap, data.x_cap, z_order),
        "c": {str(k): xseries_to_json(s) for k, s in enumerate(data.c)},
    }


def f_data_to_document(data: FData, z_order=0) -> dict:
    table = {"0": xseries_to_json(data.f0)}
    for k in range(1, data.K + 1):
        table[str(k)] = xseries_to_json(data.series(k))
    return {
        "hbar": hbar_to_json(data.ctx),
        "caps": caps_to_json(data.weight_cap, data.x_cap, z_order),
        "f": table,
    }


def tau_series_to_document(ts: TauSeries, z_order=0) -> dict:
    return {
        "hbar": hbar_to_json(ts.ctx),
        "caps": caps_to_json(ts.weight_cap, ts.x_cap, z_order),
        "c_lambda": {lam.serialize(): xseries_to_json(s)
                     for lam, s in ts.table.items()},
    }


def _diagram_table(ctx, W, X, mapping, what) -> dict:
    """A diagram-keyed table of series that reaches its weight cap ``W``;
    a cap above the table would only make the checks work on zeros."""
    if not isinstance(mapping, dict):
        raise DataFormatError(f"{what} must be an object")
    table = {Partition.parse(key): xseries_from_json(ctx, W, X, lst)
             for key, lst in mapping.items()}
    top = max((lam.weight for lam in table), default=0)
    if top < W:
        raise DataFormatError(f"{what} stops at weight {top}, "
                              f"below its weight cap {W}")
    return table


def tau_series_from_document(doc) -> TauSeries:
    ctx, W, X, _ = document_context(doc)
    if "c_lambda" not in doc:
        raise DataFormatError('tau table needs a "c_lambda" map')
    return TauSeries(ctx, W, X, _diagram_table(ctx, W, X, doc["c_lambda"],
                                               '"c_lambda"'))


def f_series_to_document(fs: FSeries, z_order=0, basis="t_hbar") -> dict:
    table = {}
    for lam, val in fs.table.items():
        if fs.symbolic:
            table[lam.serialize()] = val.render()
        else:
            table[lam.serialize()] = xseries_to_json(val)
    doc = {
        "hbar": hbar_to_json(fs.ctx),
        "caps": caps_to_json(fs.weight_cap, fs.x_cap, z_order),
        "basis": basis,
        "mode": "symbolic" if fs.symbolic else "concrete",
        "f_lambda": table,
    }
    if fs.f0 is not None:
        doc["f0"] = xseries_to_json(fs.f0)
    return doc


def f_series_from_document(doc) -> FSeries:
    ctx, W, X, _ = document_context(doc)
    if doc.get("mode") != "concrete":
        raise DataFormatError("only concrete F tables can be reloaded")
    if "f_lambda" not in doc:
        raise DataFormatError('F table needs an "f_lambda" map')
    table = _diagram_table(ctx, W, X, doc["f_lambda"], '"f_lambda"')
    f0 = xseries_from_json(ctx, W, X, doc.get("f0", ["0"]))
    basis = doc.get("basis", "t_hbar")
    if basis == "t_plain":
        from .fbuild import f_series_from_plain_table

        try:
            return f_series_from_plain_table(ctx, W, X, f0, table)
        except KeyError as exc:
            raise DataFormatError(str(exc)) from exc
    if basis != "t_hbar":
        raise DataFormatError(f"unknown basis tag {basis!r}")
    return FSeries(ctx, W, X, f0, table, symbolic=False)


def dump(doc, path=None) -> str:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def load(path) -> dict:
    """The JSON document in ``path``; its top level must be an object."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path} must hold a JSON object, "
                              f"not {type(doc).__name__}")
    return doc
