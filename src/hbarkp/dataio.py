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
valid order (length v+1 means trustworthy through x^v), so an empty list
is refused.  Partition-keyed tables use the "p1,p2,..." key format with
"" for the empty diagram; a table read back holds every diagram up to its
weight cap, from "" in "c_lambda" and from weight 1 in "f_lambda".  Every
key is read only in the spelling this module writes ("1,1", not "1, 1";
"1", not "01" or "+1"), so no two keys of a table name one entry.
"""

from __future__ import annotations

import json

from .errors import DataFormatError
from .fbuild import FData, FSeries
from .hscalar import HContext, default_window, scalar_from_json, scalar_to_json
from .partitions import Partition, partitions_upto
from .taubuild import TauData, TauSeries
from .xseries import XSeries


# Largest caps.x_order: at W = 4 the slowest command on a full document,
# verify detm, takes about 5 s at 128 and 43 s at 256.
X_ORDER_MAX = 128


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
    exponents written in it must lie in ``default_window(W)``.  An empty
    list is refused: it would claim nothing, not a zero series."""
    if not isinstance(lst, list):
        raise DataFormatError(f"series must be a list: {lst!r}")
    if not lst:
        raise DataFormatError("series must hold at least one coefficient")
    window = default_window(W)
    coeffs = [scalar_from_json(ctx, v, window) for v in lst]
    return XSeries(ctx, X, coeffs, valid=min(len(coeffs) - 1, X))


def _key(key: str, read, write, what: str, form: str):
    """``read(key)``, if ``write`` gives ``key`` back: a key spelled any
    other way (a space, a leading zero, a sign) is refused, so that no two
    keys of one table name the same entry."""
    try:
        value = read(key)
        if write(value) == key:
            return value
    except ValueError:
        pass
    raise DataFormatError(f"{what} key {key!r} is not {form}")


def _indexed_series(ctx, W, X, mapping, what) -> list[XSeries]:
    if not isinstance(mapping, dict):
        raise DataFormatError(f"{what} must be an object")
    idx = sorted(_key(k, int, str, what, 'an index written as "0", "1", ...')
                 for k in mapping)
    if idx != list(range(len(idx))) or not idx:
        raise DataFormatError(f"{what} must be indexed 0..K without gaps")
    return [xseries_from_json(ctx, W, X, mapping[str(k)]) for k in idx]


def document_context(doc) -> tuple[HContext, int, int, int]:
    ctx = hbar_from_json(doc.get("hbar", {}))
    W, X, Z = caps_from_json(doc.get("caps", {}))
    if W < 1 or X < 0 or Z < 0:
        raise DataFormatError("caps must be positive")
    if X > X_ORDER_MAX:
        raise DataFormatError(f"caps.x_order {X} is above {X_ORDER_MAX}")
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


def _diagram_table(ctx, W, X, mapping, what, least) -> dict:
    """A diagram-keyed table of series that holds every diagram of weight
    ``least`` to its weight cap ``W`` and no other: a cap above the table
    would only make the checks work on zeros, a missing diagram is not
    known to be zero, and a diagram outside those weights has no place in
    the series (the empty one of an F table would be added to f_0)."""
    if not isinstance(mapping, dict):
        raise DataFormatError(f"{what} must be an object")
    table = {}
    for key, lst in mapping.items():
        lam = _key(key, Partition.parse, Partition.serialize, what,
                   'a diagram written as "p1,p2,..."')
        if lam.weight < least:
            raise DataFormatError(f"{what} holds diagram {key!r} of weight "
                                  f"{lam.weight}, below its least weight {least}")
        if lam.weight > W:
            raise DataFormatError(f"{what} holds diagram {key!r} of weight "
                                  f"{lam.weight}, above its weight cap {W}")
        table[lam] = xseries_from_json(ctx, W, X, lst)
    top = max((lam.weight for lam in table), default=0)
    if top < W:
        raise DataFormatError(f"{what} stops at weight {top}, "
                              f"below its weight cap {W}")
    for lam in partitions_upto(W, least):
        if lam not in table:
            raise DataFormatError(f"{what} misses diagram {lam.serialize()!r}")
    return table


def tau_series_from_document(doc) -> TauSeries:
    ctx, W, X, _ = document_context(doc)
    if "c_lambda" not in doc:
        raise DataFormatError('tau table needs a "c_lambda" map')
    return TauSeries(ctx, W, X, _diagram_table(ctx, W, X, doc["c_lambda"],
                                               '"c_lambda"', 0))


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
    table = _diagram_table(ctx, W, X, doc["f_lambda"], '"f_lambda"', 1)
    f0 = xseries_from_json(ctx, W, X, doc.get("f0", ["0"]))
    basis = doc.get("basis", "t_hbar")
    if basis == "t_plain":
        from .fbuild import f_series_from_plain_table

        return f_series_from_plain_table(ctx, W, X, f0, table)
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
