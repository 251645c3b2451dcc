"""JSON specs for spaces, operators, layers and chains; canonical artifacts.

The ``*_from_spec`` readers define the spec format: they build objects from
JSON and validate strictly, so an unknown key is an error, never a silent
default.  Nothing here writes objects back out as specs.  Every artifact
file carries ``"schema": 1``, and floats pass through ``format(x, ".17g")``
on the way out so that artifacts are byte-reproducible and re-parse to the
identical value.  Seeded object specs (``seeded_layer``, ``seeded_chain``,
...) describe an object by its generator arguments instead of its
coefficients; both forms rebuild to the same evaluators.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .layers import (
    _LAYER_SPEC_KEYS,
    AffineNonlinearity,
    CoordinateNetNonlinearity,
    CoordinateNetwork,
    FiniteRankOperator,
    InvertibleResidualChain,
    NemytskiiNonlinearity,
    NeuralOperatorLayer,
    ResidualChain,
    ZeroNonlinearity,
    make_layer,
)
from .operators import Reflection, activation_from_name, orthonormal_rows
from .spectral import BasisSpec, Space

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "SpecError",
    "canonical",
    "canonical_json",
    "blob_hash",
    "check_keys",
    "integral",
    "int_field",
    "float_field",
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


@contextmanager
def _reader(where: str):
    """Decorates a spec reader: a ValueError raised while the reader builds
    its object (a constructor refusing a value) becomes a SpecError naming
    ``where``."""
    try:
        yield
    except SpecError:
        raise
    except ValueError as err:
        raise SpecError(f"{where}: {err}") from err


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


def integral(value) -> int:
    """``int(value)``, refusing a float with a fractional part."""
    out = int(value)
    if isinstance(value, float) and value != out:
        raise ValueError(f"{value!r} is not integral")
    return out


def int_field(d: dict, key: str, where: str, default=None) -> int:
    """``d[key]`` (else ``default``) as an int; integral floats pass."""
    value = d.get(key, default)
    try:
        return integral(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise SpecError(f"{where}: {key} must be an integer, got {value!r}") from err


def float_field(d: dict, key: str, where: str, default=None) -> float:
    """``d[key]`` (else ``default``) as a float."""
    value = d.get(key, default)
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise SpecError(f"{where}: {key} must be a number, got {value!r}") from err


def _optional_float(d: dict, key: str, where: str) -> float | None:
    return None if d.get(key) is None else float_field(d, key, where)


def _int_list(d: dict, key: str, where: str) -> list[int] | None:
    """``d[key]`` as a list of ints, or None when absent."""
    value = d.get(key)
    if value is None:
        return None
    try:
        return [integral(v) for v in value]
    except (TypeError, ValueError, OverflowError) as err:
        raise SpecError(f"{where}: {key} must be a list of integers, got {value!r}") from err


def _array(value, where: str, key: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as err:
        raise SpecError(f"{where}: {key} must hold numbers ({err})") from err


def _arrays(d: dict, key: str, where: str) -> tuple:
    if not isinstance(d[key], list):
        raise SpecError(f"{where}: {key} must be a list")
    return tuple(_array(v, where, key) for v in d[key])


def canonical(obj):
    """Plain JSON-ready copy: dicts with str keys, lists, and Python scalars.

    Floats pass through as they are; ``json`` writes each one as its
    shortest round-tripping repr, so every bit survives.
    """
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return canonical(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def canonical_json(obj) -> str:
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))


def blob_hash(obj) -> str:
    """Stable sha256 of the canonical JSON form; used to cite certificates."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


# ---------------------------------------------------------------------------
# spaces


@_reader("space")
def space_from_config(d: dict) -> Space:
    check_keys(d, "space", {"basis", "ambient_dim"}, {"quadrature"})
    dim = int_field(d, "ambient_dim", "space")
    panels = int_field(d, "quadrature", "space", 4 * dim)
    return Space(BasisSpec(kind=d["basis"], ambient_dim=dim, quadrature_panels=panels))


# ---------------------------------------------------------------------------
# operators


@_reader("operator")
def operator_from_spec(d: dict, ambient_dim: int | None = None) -> FiniteRankOperator:
    kind = _require_object(d, "operator").get("kind")
    if kind == "finite_rank":
        check_keys(
            d, "operator", {"kind", "omegas"}, {"psi", "phi", "psi_seed", "phi_seed"}
        )
        omegas = _array(d["omegas"], "operator", "omegas")
        rank = omegas.size

        def frame(which: str) -> np.ndarray:
            if which in d:
                return _array(d[which], "operator", which)
            seed_key = f"{which}_seed"
            if seed_key not in d:
                raise SpecError(f"operator: need either {which!r} or {seed_key!r}")
            if ambient_dim is None:
                raise SpecError(
                    f"operator: {seed_key!r} needs an ambient dimension from the space"
                )
            rng = np.random.default_rng(int_field(d, seed_key, "operator"))
            return orthonormal_rows(rng.standard_normal((ambient_dim, rank)))

        return FiniteRankOperator(omegas, frame("psi"), frame("phi"))
    if kind == "seeded_finite_rank":
        check_keys(
            d,
            "operator",
            {"kind", "rank", "seed"},
            {"dim", "scale", "decay", "psi_prefix", "phi_prefix"},
        )
        dim = int_field(d, "dim", "operator", ambient_dim or 0)
        if dim <= 0:
            raise SpecError("operator: seeded_finite_rank needs a dimension")
        return FiniteRankOperator.seeded(
            dim,
            int_field(d, "rank", "operator"),
            scale=float_field(d, "scale", "operator", 1.0),
            decay=float_field(d, "decay", "operator", 1.0),
            seed=int_field(d, "seed", "operator"),
            psi_prefix=bool(d.get("psi_prefix", False)),
            phi_prefix=bool(d.get("phi_prefix", False)),
        )
    raise SpecError(f"unknown operator kind {kind!r}")


# ---------------------------------------------------------------------------
# coordinate networks


@_reader("network")
def network_from_spec(d: dict) -> CoordinateNetwork:
    kind = _require_object(d, "network").get("kind")
    if kind == "coordinate_network":
        check_keys(d, "network", {"kind", "weights", "biases", "activation"})
        return CoordinateNetwork(
            _arrays(d, "weights", "network"),
            _arrays(d, "biases", "network"),
            activation_from_name(d["activation"]),
        )
    if kind == "seeded_coordinate_network":
        check_keys(
            d,
            "network",
            {"kind", "n_in", "n_out", "seed"},
            {"hidden", "activation", "target_bound", "bias_scale"},
        )
        act = d.get("activation")
        return CoordinateNetwork.seeded(
            int_field(d, "n_in", "network"),
            int_field(d, "n_out", "network"),
            hidden=_int_list(d, "hidden", "network"),
            activation=None if act is None else activation_from_name(act),
            target_bound=float_field(d, "target_bound", "network", 1.0),
            bias_scale=float_field(d, "bias_scale", "network", 0.0),
            seed=int_field(d, "seed", "network"),
        )
    raise SpecError(f"unknown network kind {kind!r}")


# ---------------------------------------------------------------------------
# nonlinearities and layers


@_reader("nonlinearity")
def nonlinearity_from_spec(d: dict, space: Space | None = None):
    kind = _require_object(d, "nonlinearity").get("kind")
    if kind == "zero":
        check_keys(d, "nonlinearity", {"kind"})
        return ZeroNonlinearity()
    if kind == "affine":
        check_keys(d, "nonlinearity", {"kind", "matrix", "bias"})
        return AffineNonlinearity(
            _array(d["matrix"], "nonlinearity", "matrix"),
            _array(d["bias"], "nonlinearity", "bias"),
        )
    if kind == "coordinate_net":
        check_keys(d, "nonlinearity", {"kind", "net", "ambient_dim"})
        return CoordinateNetNonlinearity(
            network_from_spec(d["net"]), int_field(d, "ambient_dim", "nonlinearity")
        )
    if kind == "nemytskii":
        check_keys(d, "nonlinearity", {"kind", "activation"})
        if space is None:
            raise SpecError("nonlinearity: a Nemytskii map needs the space")
        return NemytskiiNonlinearity(space, activation_from_name(d["activation"]))
    raise SpecError(f"unknown nonlinearity kind {kind!r}")


@_reader("layer")
def layer_from_spec(d: dict, space: Space | None = None) -> NeuralOperatorLayer:
    kind = _require_object(d, "layer").get("kind")
    if kind == "layer":
        check_keys(d, "layer", {"kind", "in_op", "out_op", "nonlin"})
        ambient = space.dim if space is not None else None
        return NeuralOperatorLayer(
            operator_from_spec(d["in_op"], ambient),
            operator_from_spec(d["out_op"], ambient),
            nonlinearity_from_spec(d["nonlin"], space),
        )
    if kind == "seeded_layer":
        if space is None:
            raise SpecError("layer: a seeded layer needs the space")
        if "seed" not in d:
            raise SpecError("layer: a seeded layer needs an explicit seed")
        body = {k: v for k, v in d.items() if k not in ("kind", "seed")}
        unknown = set(body) - _LAYER_SPEC_KEYS
        if unknown:
            raise SpecError(f"layer: unknown layer spec keys {sorted(unknown)}")
        if "rank" in body:
            body["rank"] = int_field(body, "rank", "layer")
        for key in ("decay", "lip_g", "norm_in", "norm_out", "bias_scale"):
            if key in body:
                body[key] = float_field(body, key, "layer")
        if "hidden" in body:
            body["hidden"] = _int_list(body, "hidden", "layer")
        if "activation" in body:
            activation_from_name(body["activation"])
        return make_layer(space, body, seed=int_field(d, "seed", "layer"))
    raise SpecError(f"unknown layer kind {kind!r}")


# ---------------------------------------------------------------------------
# residual chains and their linear heads


@_reader("chain")
def chain_from_spec(d: dict):
    kind = _require_object(d, "chain").get("kind")
    if kind == "residual_chain":
        check_keys(d, "chain", {"kind", "ambient_dim", "prefix_n", "blocks"})
        if not isinstance(d["blocks"], list):
            raise SpecError("chain: blocks must be a list")
        blocks = tuple(network_from_spec(b) for b in d["blocks"])
        return ResidualChain(
            int_field(d, "ambient_dim", "chain"), int_field(d, "prefix_n", "chain"), blocks
        )
    if kind == "invertible_residual_chain":
        check_keys(d, "chain", {"kind", "delta", "chain"}, {"ball_radius"})
        return InvertibleResidualChain(
            chain_from_spec(d["chain"]),
            float_field(d, "delta", "chain"),
            ball_radius=_optional_float(d, "ball_radius", "chain"),
        )
    if kind == "seeded_chain":
        check_keys(
            d,
            "chain",
            {"kind", "ambient_dim", "num_blocks", "seed"},
            {"prefix_n", "delta", "block_bound", "activation", "hidden", "bias_scale", "ball_radius"},
        )
        act = d.get("activation")
        delta = _optional_float(d, "delta", "chain")
        dim = int_field(d, "ambient_dim", "chain")
        chain = ResidualChain.seeded(
            dim,
            int_field(d, "prefix_n", "chain", dim),
            int_field(d, "num_blocks", "chain"),
            block_bound=float_field(
                d, "block_bound", "chain", delta if delta is not None else 0.5
            ),
            activation=None if act is None else activation_from_name(act),
            hidden=_int_list(d, "hidden", "chain"),
            bias_scale=float_field(d, "bias_scale", "chain", 0.3),
            seed=int_field(d, "seed", "chain"),
        )
        if delta is None:
            return chain
        return InvertibleResidualChain(
            chain, delta, ball_radius=_optional_float(d, "ball_radius", "chain")
        )
    raise SpecError(f"unknown chain kind {kind!r}")


def head_from_spec(d: dict, dim: int | None = None):
    kind = _require_object(d, "head").get("kind")
    if kind == "identity":
        check_keys(d, "head", {"kind"})
        return None
    if kind == "reflection":
        check_keys(d, "head", {"kind"}, {"e", "axis_dim"})
        if "e" in d:
            want = "" if dim is None else f"{dim} "
            try:
                e = np.asarray(d["e"], dtype=float)
                if dim is not None and e.shape != (dim,):
                    raise ValueError(f"got shape {e.shape}")
                return Reflection(e)
            except (TypeError, ValueError) as err:
                raise SpecError(
                    f"head: 'e' must be a flat list of {want}finite numbers "
                    f"of unit length ({err})"
                ) from err
        if d.get("axis_dim", dim) is None:
            raise SpecError("head: a reflection needs 'e' or 'axis_dim'")
        n = int_field(d, "axis_dim", "head", dim)
        if dim is not None and n != dim:
            raise SpecError(f"head: axis_dim {n} does not match the dimension {dim}")
        return Reflection.first_axis(n)
    raise SpecError(f"unknown head kind {kind!r}")


# ---------------------------------------------------------------------------
# files


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def read_envelope(obj: dict, where: str, required: set, optional: set = frozenset()):
    """Validate a top-level artifact object: schema tag plus declared keys."""
    check_keys(obj, where, required | {"schema"}, optional)
    if obj["schema"] != SCHEMA_VERSION:
        raise SpecError(f"{where}: unsupported schema {obj['schema']!r}")
    return obj


def write_json(path, obj) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(canonical(obj), sort_keys=True, indent=2) + "\n")


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
