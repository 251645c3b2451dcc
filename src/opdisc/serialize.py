"""JSON specs for spaces, operators, layers and chains; strict JSON artifacts.

Key tables are the one source of the keys of every JSON object the package
reads: ``SPACE_KEYS`` for a space config; ``OPERATORS``, ``NETWORKS``,
``NONLINEARITIES``, ``LAYERS``, ``CHAINS`` and ``HEADS``, which map each spec
kind to its key table and the build that makes its object; and ``cli.KEYS``
for experiments.  Each entry gives a key's type, default and value check.
:func:`read_keys` reads an object against its table, checking every key
before the object is built, so an unknown key or a refused value is an
error naming the key, never a silent default.  Nothing here writes objects
back out as specs.  Every artifact file carries ``"schema": 1``.
:func:`write_json` is the one JSON writer: sorted keys, floats as their
shortest round-tripping repr, and no NaN or Infinity, which it refuses
before it writes anything.  CSV floats are written with 17 significant
digits.  So artifacts are byte-reproducible and re-parse to the identical
value.  Seeded object specs
(``seeded_layer``, ``seeded_chain``, ...) describe an object by its
generator arguments instead of its coefficients; both forms rebuild to the
same evaluators.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .layers import (
    CoordinateNetNonlinearity,
    CoordinateNetwork,
    FiniteRankOperator,
    NemytskiiNonlinearity,
    NeuralOperatorLayer,
    ResidualChain,
    affine_nonlinearity,
    make_layer,
)
from .operators import Reflection, activation_from_name, orthonormal_rows
from .spectral import BasisSpec, Space, StageError

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "SpecError",
    "canonical_json",
    "blob_hash",
    "check_keys",
    "check_schema",
    "integral",
    "read_keys",
    "space_from_config",
    "operator_from_spec",
    "network_from_spec",
    "nonlinearity_from_spec",
    "layer_from_spec",
    "chain_from_spec",
    "head_from_spec",
    "load_json",
    "read_envelope",
    "write_json",
    "write_csv",
]


class SpecError(ValueError):
    """A config or JSON object spec that cannot be read or built (exit code
    1 on the command line)."""


def _require_object(d, where: str) -> dict:
    if not isinstance(d, dict):
        raise SpecError(f"{where}: expected an object, got {type(d).__name__}")
    return d


def check_keys(d: dict, where: str, required: set, optional: set = frozenset()):
    missing = required - set(_require_object(d, where))
    if missing:
        raise SpecError(f"{where}: missing required keys {sorted(missing)}")
    unknown = set(d) - required - set(optional)
    if unknown:
        raise SpecError(f"{where}: unknown keys {sorted(unknown)}")


def _is_number(value) -> bool:
    """A JSON number: an int or a float, not a boolean or a numeric string."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def integral(value) -> int:
    """``int(value)`` of a number, refusing a float with a fractional part."""
    if not _is_number(value):
        raise TypeError(f"{value!r} is not a number")
    out = int(value)
    if value != out:
        raise ValueError(f"{value!r} is not integral")
    return out


def _all_numbers(value) -> bool:
    if isinstance(value, list):
        return all(_all_numbers(item) for item in value)
    return _is_number(value)


def _number_array(value) -> np.ndarray:
    """The float array of a number or a nested list of numbers."""
    if not _all_numbers(value):
        raise TypeError(f"{value!r} holds a value that is not a number")
    return np.asarray(value, dtype=float)


# ---------------------------------------------------------------------------
# key tables and their reader


class _Type(NamedTuple):
    """How a key's value is read: ``read(value, got)``, given the values read
    before it, returns what the build uses, and a TypeError, ValueError or
    OverflowError refuses the value as not ``noun``; a type without a noun
    refuses in the words of the read's own error.  ``option`` holds the
    click keywords of the key's flag."""

    name: str
    noun: str | None
    read: Callable
    option: dict | None = None


class _Check(NamedTuple):
    """``fault(value, got)`` says what is wrong with a read value, or None;
    a check that allows a fixed set of values lists them as ``choices``."""

    text: str
    fault: Callable
    choices: tuple = ()


class _Key(NamedTuple):
    """One key.  Its default is ``_REQUIRED``, a value, or None when the
    build derives it; ``flag`` is an experiment key's subcommand option."""

    type: _Type
    default: object
    check: _Check | None = None
    flag: object = None


_REQUIRED = object()


class _Values(dict):
    """An object's values by key; what the caller passed the reader (the
    space, the build memo, ...) as attributes."""

    def __init__(self, **context):
        super().__init__()
        self.__dict__.update(context)


def read_keys(d: dict, keys: dict, where: str, scope: str | None = None, **context) -> _Values:
    """Check ``d`` against a key table and read every value, in table order,
    before anything is built; ``context`` is what the reads and the build
    may use besides the values.  Missing and unknown keys are refused under
    ``scope`` (default ``where``); a refused value is a SpecError naming
    ``where`` and the key."""
    required = {key for key, entry in keys.items() if entry.default is _REQUIRED}
    check_keys(d, scope or where, required, set(keys))
    got = _Values(**context)
    for key, entry in keys.items():
        if key not in d and entry.default is None:
            got[key] = None  # the build derives it
            continue
        raw = d.get(key, entry.default)
        try:
            value = entry.type.read(raw, got)
        except SpecError:
            raise
        except (TypeError, ValueError, OverflowError) as err:
            if entry.type.noun is None:
                raise SpecError(f"{where}: {err}") from err
            raise SpecError(f"{where}: {key} must be {entry.type.noun}, got {raw!r}") from err
        fault = entry.check.fault(value, got) if entry.check else None
        if fault:
            raise SpecError(f"{where}: {key} {fault}, got {raw!r}")
        got[key] = value
    return got


def _build(keys: dict, build: Callable, d: dict, where: str, **context):
    """Read ``d`` against ``keys``, then ``build`` its object; a ValueError
    the build raises (a constructor refusing a value) becomes a SpecError
    naming ``where``."""
    got = read_keys(d, keys, where, **context)
    try:
        return build(got)
    except ValueError as err:
        raise SpecError(f"{where}: {err}") from err


def _build_kind(kinds: dict, d: dict, where: str, **context):
    """The object a spec describes: its ``kind`` picks the key table and the
    build from ``kinds``."""
    body = dict(_require_object(d, where))
    kind = body.pop("kind", None)
    if not isinstance(kind, str) or kind not in kinds:
        raise SpecError(f"unknown {where} kind {kind!r}")
    return _build(*kinds[kind], body, where, **context)


def _of(cls):
    """A read that takes a value of ``cls`` as it is."""

    def read(value, got):
        if not isinstance(value, cls):
            raise TypeError(value)
        return value

    return read


def _number(value, got) -> float:
    if not _is_number(value):
        raise TypeError(value)
    return float(value)


_list = _of(list)


def _ints(value, got) -> list[int]:
    return [integral(v) for v in _list(value, got)]


def _numbers_fault(value, got):
    """Each entry of a list is a number or a nested list of numbers, all
    finite (the build converts it again)."""
    try:
        if all(np.isfinite(_number_array(item)).all() for item in value):
            return None
    except (TypeError, ValueError):
        pass
    return "must hold numbers, all finite"


def _unit_vector(e, got) -> Reflection:
    """The reflection through a unit vector ``e``, with one entry per
    coordinate of the chain it heads when that dimension is known."""
    want = "" if got.dim is None else f"{got.dim} "
    try:
        e = _number_array(e)
        if got.dim is not None and e.shape != (got.dim,):
            raise ValueError(f"got shape {e.shape}")
        return Reflection(e)
    except (TypeError, ValueError) as err:
        raise ValueError(
            f"'e' must be a flat list of {want}finite numbers of unit length ({err})"
        ) from err


_INT = _Type("int", "an integer", lambda value, got: integral(value), {"type": int})
_FLOAT = _Type("float", "a number", _number, {"type": float})
_STRING = _Type("string", "a string", _of(str), {"type": str})
_BOOL = _Type("bool", "true or false", _of(bool))
_WIDTHS = _Type("int list", "a list of integers", _ints)
_LIST = _Type("list", "a list", _list)
_ACTIVATION = _Type("activation", None, lambda name, got: activation_from_name(name))
_UNIT = _Type("unit vector", None, _unit_vector)
_OPERATOR = _Type("operator spec", None, lambda d, got: operator_from_spec(
    d, None if got.space is None else got.space.dim))
_NONLIN = _Type("nonlinearity spec", None, lambda d, got: nonlinearity_from_spec(d, got.space))
_NETWORK = _Type("network spec", None, lambda d, got: network_from_spec(d))
_NETWORKS = _Type("network specs", "a list of network specs", lambda value, got: tuple(
    network_from_spec(d) for d in _list(value, got)))
_CHAIN_SPEC = _Type("chain spec", None, lambda d, got: chain_from_spec(d))

_FINITE = _Check("finite", lambda v, got: None if math.isfinite(v) else "must be finite")
_ONE_OR_MORE = _Check(">= 1", lambda v, got: None if v >= 1 else "must be at least 1")
_EACH_ONE_OR_MORE = _Check("each >= 1", lambda v, got: None if all(w >= 1 for w in v)
                           else "must each be at least 1")
_NUMBERS = _Check("finite numbers", _numbers_fault)


def _plain(obj):
    """``json``'s hook for the numpy values and records in a report: an
    array becomes its nested list, a numpy scalar its Python scalar and a
    dataclass record the object of its fields; anything else is a
    TypeError."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray | np.generic):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def canonical_json(obj) -> str:
    """Compact JSON with sorted keys; floats keep every bit (shortest repr)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_plain)


def blob_hash(obj) -> str:
    """Stable sha256 of the canonical JSON form; used to cite certificates."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


# ---------------------------------------------------------------------------
# spaces

# key: _Key(type, default, check), in the order the reader reads them
SPACE_KEYS = {
    "basis": _Key(_STRING, _REQUIRED),
    "ambient_dim": _Key(_INT, _REQUIRED),
    "quadrature": _Key(_INT, None),
}


def _space(got: _Values) -> Space:
    return Space(BasisSpec(got["basis"], got["ambient_dim"], got["quadrature"]))


def space_from_config(d: dict) -> Space:
    return _build(SPACE_KEYS, _space, d, "space")


# ---------------------------------------------------------------------------
# operators


def _finite_rank(got: _Values) -> FiniteRankOperator:
    """An explicit operator; a frame given by its seed is drawn on the
    space's coordinates."""

    def frame(which: str):
        if got[which] is not None:
            return got[which]
        seed = got[f"{which}_seed"]
        if seed is None:
            raise ValueError(f"need either {which!r} or '{which}_seed'")
        if got.ambient_dim is None:
            raise ValueError(f"'{which}_seed' needs an ambient dimension from the space")
        rng = np.random.default_rng(seed)
        return orthonormal_rows(rng.standard_normal((got.ambient_dim, np.size(got["omegas"]))))

    return FiniteRankOperator(got["omegas"], frame("psi"), frame("phi"))


def _seeded_finite_rank(got: _Values) -> FiniteRankOperator:
    dim = got.ambient_dim if got["dim"] is None else got["dim"]
    if dim is None:
        raise ValueError("seeded_finite_rank needs a dimension")
    return FiniteRankOperator.seeded(**{**got, "dim": dim})


# kind: (key table, build); the build gets the values read
OPERATORS = {
    "finite_rank": ({
        "omegas": _Key(_LIST, _REQUIRED, _NUMBERS),
        "psi": _Key(_LIST, None, _NUMBERS),
        "phi": _Key(_LIST, None, _NUMBERS),
        "psi_seed": _Key(_INT, None),
        "phi_seed": _Key(_INT, None),
    }, _finite_rank),
    "seeded_finite_rank": ({
        "dim": _Key(_INT, None, _ONE_OR_MORE),
        "rank": _Key(_INT, _REQUIRED),
        "scale": _Key(_FLOAT, 1.0, _FINITE),
        "decay": _Key(_FLOAT, 1.0, _FINITE),
        "seed": _Key(_INT, _REQUIRED),
        "psi_prefix": _Key(_BOOL, False),
        "phi_prefix": _Key(_BOOL, False),
    }, _seeded_finite_rank),
}


def operator_from_spec(d: dict, ambient_dim: int | None = None) -> FiniteRankOperator:
    return _build_kind(OPERATORS, d, "operator", ambient_dim=ambient_dim)


# ---------------------------------------------------------------------------
# coordinate networks

NETWORKS = {
    "coordinate_network": ({
        "weights": _Key(_LIST, _REQUIRED, _NUMBERS),
        "biases": _Key(_LIST, _REQUIRED, _NUMBERS),
        "activation": _Key(_ACTIVATION, _REQUIRED),
    }, lambda got: CoordinateNetwork(**got)),
    "seeded_coordinate_network": ({
        "n_in": _Key(_INT, _REQUIRED, _ONE_OR_MORE),
        "n_out": _Key(_INT, _REQUIRED, _ONE_OR_MORE),
        "hidden": _Key(_WIDTHS, None, _EACH_ONE_OR_MORE),
        "activation": _Key(_ACTIVATION, None),
        "target_bound": _Key(_FLOAT, 1.0, _FINITE),
        "bias_scale": _Key(_FLOAT, 0.0, _FINITE),
        "seed": _Key(_INT, _REQUIRED),
    }, lambda got: CoordinateNetwork.seeded(**got)),
}


def network_from_spec(d: dict) -> CoordinateNetwork:
    return _build_kind(NETWORKS, d, "network")


# ---------------------------------------------------------------------------
# nonlinearities and layers


def _the_space(got: _Values, what: str) -> Space:
    """The space the reader was given, which ``what`` needs."""
    if got.space is None:
        raise ValueError(f"{what} needs the space")
    return got.space


def _zero(got: _Values) -> CoordinateNetNonlinearity:
    m = _the_space(got, "a zero map").dim
    return affine_nonlinearity(np.zeros((m, m)), np.zeros(m))


NONLINEARITIES = {
    "zero": ({}, _zero),
    "affine": ({
        "matrix": _Key(_LIST, _REQUIRED, _NUMBERS),
        "bias": _Key(_LIST, _REQUIRED, _NUMBERS),
    }, lambda got: affine_nonlinearity(got["matrix"], got["bias"])),
    "coordinate_net": ({
        "net": _Key(_NETWORK, _REQUIRED),
        "ambient_dim": _Key(_INT, _REQUIRED),
    }, lambda got: CoordinateNetNonlinearity(**got)),
    "nemytskii": ({"activation": _Key(_ACTIVATION, _REQUIRED)}, lambda got: (
        NemytskiiNonlinearity(_the_space(got, "a Nemytskii map"), got["activation"]))),
}


def nonlinearity_from_spec(d: dict, space: Space | None = None):
    return _build_kind(NONLINEARITIES, d, "nonlinearity", space=space)


LAYERS = {
    "layer": ({
        "in_op": _Key(_OPERATOR, _REQUIRED),
        "out_op": _Key(_OPERATOR, _REQUIRED),
        "nonlin": _Key(_NONLIN, _REQUIRED),
    }, lambda got: NeuralOperatorLayer(**got)),
    "seeded_layer": ({
        "seed": _Key(_INT, _REQUIRED),
        "rank": _Key(_INT, None),
        "decay": _Key(_FLOAT, 1.0, _FINITE),
        "lip_g": _Key(_FLOAT, 0.5, _FINITE),
        "nonlin": _Key(_STRING, "coordinate_net"),
        "norm_in": _Key(_FLOAT, 1.0, _FINITE),
        "norm_out": _Key(_FLOAT, 1.0, _FINITE),
        "out_phi_prefix": _Key(_BOOL, False),
        "bias_scale": _Key(_FLOAT, 0.0, _FINITE),
        "hidden": _Key(_WIDTHS, None, _EACH_ONE_OR_MORE),
        "activation": _Key(_ACTIVATION, "leaky_relu"),
    }, lambda got: make_layer(_the_space(got, "a seeded layer"), **got)),
}


def layer_from_spec(d: dict, space: Space | None = None) -> NeuralOperatorLayer:
    return _build_kind(LAYERS, d, "layer", space=space)


# ---------------------------------------------------------------------------
# residual chains and their linear heads


def _seeded_chain(got: _Values) -> ResidualChain:
    """A seeded chain whose prefix defaults to the whole ambient space."""
    if got["prefix_n"] is None:
        got["prefix_n"] = got["ambient_dim"]
    return ResidualChain.seeded(**got)


CHAINS = {
    "residual_chain": ({
        "ambient_dim": _Key(_INT, _REQUIRED),
        "prefix_n": _Key(_INT, _REQUIRED),
        "blocks": _Key(_NETWORKS, _REQUIRED),
    }, lambda got: ResidualChain(**got)),
    # the inner chain's blocks under the spec's delta and ball_radius
    "invertible_residual_chain": ({
        "chain": _Key(_CHAIN_SPEC, _REQUIRED),
        "delta": _Key(_FLOAT, _REQUIRED),
        "ball_radius": _Key(_FLOAT, None),
    }, lambda got: dataclasses.replace(got.pop("chain"), **got)),
    "seeded_chain": ({
        "ambient_dim": _Key(_INT, _REQUIRED),
        "prefix_n": _Key(_INT, None, _ONE_OR_MORE),
        "num_blocks": _Key(_INT, _REQUIRED),
        "block_bound": _Key(_FLOAT, None, _FINITE),
        "activation": _Key(_ACTIVATION, None),
        "hidden": _Key(_WIDTHS, None, _EACH_ONE_OR_MORE),
        "bias_scale": _Key(_FLOAT, 0.3, _FINITE),
        "seed": _Key(_INT, _REQUIRED),
        "delta": _Key(_FLOAT, None),
        "ball_radius": _Key(_FLOAT, None),
    }, _seeded_chain),
}


def chain_from_spec(d: dict):
    return _build_kind(CHAINS, d, "chain")


def _reflection(got: _Values) -> Reflection:
    """The reflection through ``e``, else through the first axis of
    ``axis_dim`` (default: the chain's dimension)."""
    if got["e"] is not None:
        return got["e"]
    n = got.dim if got["axis_dim"] is None else got["axis_dim"]
    if n is None:
        raise ValueError("a reflection needs 'e' or 'axis_dim'")
    if got.dim is not None and n != got.dim:
        raise ValueError(f"axis_dim {n} does not match the dimension {got.dim}")
    return Reflection.first_axis(n)


HEADS = {
    "identity": ({}, lambda got: None),
    "reflection": ({"e": _Key(_UNIT, None), "axis_dim": _Key(_INT, None)}, _reflection),
}


def head_from_spec(d: dict, dim: int | None = None):
    return _build_kind(HEADS, d, "head", dim=dim)


# ---------------------------------------------------------------------------
# files


def load_json(path):
    """The JSON value in the file at ``path``; a file that does not parse
    is a SpecError naming the path."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as err:  # a JSONDecodeError or a UnicodeDecodeError
            raise SpecError(f"{path}: not valid JSON ({err})") from err


def read_envelope(obj: dict, where: str, required: set, optional: set = frozenset()):
    """Validate a top-level artifact object: schema tag plus declared keys."""
    check_keys(obj, where, required | {"schema"}, optional)
    check_schema(obj["schema"], where)
    return obj


def check_schema(value, where: str) -> None:
    """Refuse a schema tag other than the number 1; ``true`` is not 1."""
    if isinstance(value, bool) or value != SCHEMA_VERSION:
        raise SpecError(f"{where}: unsupported schema {value!r}")


def write_json(path, obj) -> None:
    """Write ``obj`` as strict JSON: sorted keys, shortest-repr floats.  It
    is serialized before any directory or file is made, so a NaN or an
    infinity raises ``[write_json] {file name}: ...`` and leaves no file."""
    path = Path(path)
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False, default=_plain)
    except ValueError as err:
        raise StageError("write_json", f"{path.name}: {err}") from err
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


def write_csv(path, header: str, rows) -> None:
    """Write rows of floats under a fixed header with 17 significant digits."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    lines = [header]
    for row in rows:
        lines.append(
            ",".join(
                format(float(x), ".17g") if isinstance(x, (float, np.floating)) else str(x)
                for x in row
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")
