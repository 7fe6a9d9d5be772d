"""Versioned JSON persistence for trained mixtures.

Floats are serialized with repr precision, so save -> load round-trips are
lossless and repeated saves of the same model are byte-identical.  Files
are written atomically (temp file + rename).
"""

from __future__ import annotations

import json
import os
import secrets
from typing import Optional

import numpy as np

from .ctbn import CtbnExpert, TreeStructure
from .dataset import Standardizer
from .errors import ArgumentError, SchemaError
from .logreg import LinearModel
from .mixture import GatingModel, MixtureModel

FORMAT_VERSION = "mlme-model/1"


def model_to_dict(model: MixtureModel,
                  standardizer: Optional[Standardizer] = None) -> dict:
    experts = []
    for expert in model.experts:
        experts.append({
            "parent": [None if p is None else int(p)
                       for p in expert.structure.parent],
            "cpds": [
                [{"params": m.params.tolist(), "lambda": m.lam} for m in models]
                for models in expert.cpds
            ],
        })
    return {
        "format": FORMAT_VERSION,
        "m": model.n_features - 1,
        "d": model.d,
        "k": model.k,
        "gating": model.gating.theta.tolist(),
        "experts": experts,
        "standardizer": standardizer.to_dict() if standardizer else None,
        "meta": model.meta,
    }


def _field(doc, key: str, valid):
    """doc[key] if doc is an object holding a valid value there, else SchemaError."""
    value = doc.get(key) if isinstance(doc, dict) else None
    if not valid(value):
        raise SchemaError(f"model file: '{key}' is missing or ill-typed")
    return value


def _list_of(valid=lambda v: True):
    """Validator for a JSON array whose items all pass ``valid``."""
    return lambda v: isinstance(v, list) and all(valid(a) for a in v)


def _floats(doc, key: str, ndim: int) -> np.ndarray:
    """doc[key] as a float array with ndim axes, else SchemaError."""
    try:
        values = np.asarray(doc[key], dtype=np.float64)
        if values.ndim == ndim:
            return values
    except (KeyError, TypeError, ValueError, OverflowError):  # ragged, huge ints
        pass
    raise SchemaError(f"model file: '{key}' is missing or ill-typed")


def _linear_model(doc) -> LinearModel:
    return LinearModel(_floats(doc, "params", 1),
                       _field(doc, "lambda", lambda v: type(v) in (int, float)))


def model_from_dict(doc: dict) -> tuple[MixtureModel, Optional[Standardizer]]:
    found = doc.get("format") if isinstance(doc, dict) else None
    if found != FORMAT_VERSION:
        raise SchemaError(
            f"unsupported model format {found!r}; expected {FORMAT_VERSION!r}")
    try:
        experts = []
        for edoc in _field(doc, "experts", _list_of()):
            parent = _field(edoc, "parent",
                            _list_of(lambda p: p is None or type(p) is int))
            cpds = tuple(tuple(_linear_model(m) for m in models)
                         for models in _field(edoc, "cpds", _list_of(_list_of())))
            experts.append(CtbnExpert(TreeStructure(tuple(parent)), cpds))
        meta = _field(doc, "meta", lambda v: v is None or isinstance(v, dict))
        model = MixtureModel(tuple(experts), GatingModel(_floats(doc, "gating", 2)),
                             meta or {})
    except ArgumentError as exc:
        raise SchemaError(f"model file: {exc}") from None
    for key, actual in (("k", model.k), ("m", model.n_features - 1), ("d", model.d)):
        if doc.get(key) != actual:
            raise SchemaError(f"model file: header {key}={doc.get(key)!r} "
                              f"disagrees with the arrays ({actual})")
    scaler = None
    if doc.get("standardizer"):
        mean, scale = (_floats(doc["standardizer"], key, 1) for key in ("mean", "scale"))
        if not (mean.shape == scale.shape == (model.n_features - 1,)
                and np.all(np.isfinite(mean)) and np.all(np.isfinite(scale) & (scale > 0))):
            raise SchemaError("model file: the standardizer needs m finite means "
                              "and m finite positive scales")
        scaler = Standardizer(mean, scale)
    return model, scaler


def atomic_write_text(path, text: str) -> None:
    """Write text to a uniquely named temp file beside path, then rename it.

    Concurrent writers of one path never share a temp file; a failed write
    removes its temp file.  The file is created like open(path, "w") would,
    so it gets the usual umask-derived mode.
    """
    tmp = f"{path}.{os.getpid()}.{secrets.token_hex(4)}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_model(model: MixtureModel, path,
               standardizer: Optional[Standardizer] = None) -> None:
    doc = model_to_dict(model, standardizer)
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_model(path) -> tuple[MixtureModel, Optional[Standardizer]]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not a valid model file: {exc}") from None
    return model_from_dict(doc)
