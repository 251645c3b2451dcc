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
from pathlib import Path

import numpy as np

from .layers import (
    _ACTIVATIONS,
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
    scaled_leaky_activation,
)
from .operators import CoordinateActivation, PointwiseActivation, Reflection
from .spectral import BasisSpec, Space

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "SpecError",
    "canonical",
    "canonical_json",
    "blob_hash",
    "check_keys",
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
    """A JSON object spec that does not match the schema."""


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


def canonical(obj):
    """Recursively round floats to 17 significant digits (a no-op in value)."""
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
        return float(format(float(obj), ".17g"))
    return obj


def canonical_json(obj) -> str:
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))


def blob_hash(obj) -> str:
    """Stable sha256 of the canonical JSON form; used to cite certificates."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


# ---------------------------------------------------------------------------
# spaces


def space_from_config(d: dict) -> Space:
    check_keys(d, "space", {"basis", "ambient_dim"}, {"quadrature"})
    spec = BasisSpec(
        kind=d["basis"],
        ambient_dim=int(d["ambient_dim"]),
        quadrature_panels=int(d.get("quadrature", 4 * int(d["ambient_dim"]))),
    )
    return Space(spec)


# ---------------------------------------------------------------------------
# activations


def _activation_from_name(name: str):
    """Coordinate activation from a table name like ``tanh`` or ``leaky_relu(0.3)``."""
    bare, _, arg = name.partition("(")
    if bare not in _ACTIVATIONS:
        raise SpecError(f"unknown activation {name!r}; know {sorted(_ACTIVATIONS)}")
    if arg:
        if bare != "leaky_relu":
            raise SpecError(f"activation {bare!r} takes no parameter, got {name!r}")
        return CoordinateActivation.leaky_relu(float(arg.rstrip(")")))
    return _ACTIVATIONS[bare]()


def _pointwise_from_name(name: str) -> PointwiseActivation:
    bare, _, arg = name.partition("(")
    table = {
        "tanh": PointwiseActivation.tanh,
        "leaky_relu": PointwiseActivation.leaky_relu,
        "recu": PointwiseActivation.recu,
        "identity": PointwiseActivation.identity,
        "scaled_leaky": scaled_leaky_activation,
    }
    if bare not in table:
        raise SpecError(f"unknown pointwise activation {name!r}; know {sorted(table)}")
    if arg:
        return table[bare](float(arg.rstrip(")")))
    return table[bare]()


# ---------------------------------------------------------------------------
# operators


def _seeded_frame(dim: int, rank: int, seed: int) -> np.ndarray:
    """Orthonormal rows from a seeded Gaussian draw (sign-fixed QR)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, rank))
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return (q * signs).T.copy()


def operator_from_spec(d: dict, ambient_dim: int | None = None) -> FiniteRankOperator:
    kind = _require_object(d, "operator").get("kind")
    if kind == "finite_rank":
        check_keys(
            d, "operator", {"kind", "omegas"}, {"psi", "phi", "psi_seed", "phi_seed"}
        )
        omegas = np.asarray(d["omegas"], dtype=float)
        rank = omegas.size

        def frame(which: str) -> np.ndarray:
            if which in d:
                return np.asarray(d[which], dtype=float)
            seed_key = f"{which}_seed"
            if seed_key not in d:
                raise SpecError(f"operator: need either {which!r} or {seed_key!r}")
            if ambient_dim is None:
                raise SpecError(
                    f"operator: {seed_key!r} needs an ambient dimension from the space"
                )
            return _seeded_frame(ambient_dim, rank, int(d[seed_key]))

        return FiniteRankOperator(omegas, frame("psi"), frame("phi"))
    if kind == "seeded_finite_rank":
        check_keys(
            d,
            "operator",
            {"kind", "rank", "seed"},
            {"dim", "scale", "decay", "psi_prefix", "phi_prefix"},
        )
        dim = int(d.get("dim", ambient_dim or 0))
        if dim <= 0:
            raise SpecError("operator: seeded_finite_rank needs a dimension")
        return FiniteRankOperator.seeded(
            dim,
            int(d["rank"]),
            scale=float(d.get("scale", 1.0)),
            decay=float(d.get("decay", 1.0)),
            seed=int(d["seed"]),
            psi_prefix=bool(d.get("psi_prefix", False)),
            phi_prefix=bool(d.get("phi_prefix", False)),
        )
    raise SpecError(f"unknown operator kind {kind!r}")


# ---------------------------------------------------------------------------
# coordinate networks


def network_from_spec(d: dict) -> CoordinateNetwork:
    kind = _require_object(d, "network").get("kind")
    if kind == "coordinate_network":
        check_keys(d, "network", {"kind", "weights", "biases", "activation"})
        weights = tuple(np.asarray(w, dtype=float) for w in d["weights"])
        biases = tuple(np.asarray(b, dtype=float) for b in d["biases"])
        return CoordinateNetwork(weights, biases, _activation_from_name(d["activation"]))
    if kind == "seeded_coordinate_network":
        check_keys(
            d,
            "network",
            {"kind", "n_in", "n_out", "seed"},
            {"hidden", "activation", "target_bound", "bias_scale"},
        )
        act = d.get("activation")
        return CoordinateNetwork.seeded(
            int(d["n_in"]),
            int(d["n_out"]),
            hidden=d.get("hidden"),
            activation=None if act is None else _activation_from_name(act),
            target_bound=float(d.get("target_bound", 1.0)),
            bias_scale=float(d.get("bias_scale", 0.0)),
            seed=int(d["seed"]),
        )
    raise SpecError(f"unknown network kind {kind!r}")


# ---------------------------------------------------------------------------
# nonlinearities and layers


def nonlinearity_from_spec(d: dict, space: Space | None = None):
    kind = _require_object(d, "nonlinearity").get("kind")
    if kind == "zero":
        check_keys(d, "nonlinearity", {"kind"})
        return ZeroNonlinearity()
    if kind == "affine":
        check_keys(d, "nonlinearity", {"kind", "matrix", "bias"})
        return AffineNonlinearity(
            np.asarray(d["matrix"], dtype=float), np.asarray(d["bias"], dtype=float)
        )
    if kind == "coordinate_net":
        check_keys(d, "nonlinearity", {"kind", "net", "ambient_dim"})
        return CoordinateNetNonlinearity(
            network_from_spec(d["net"]), int(d["ambient_dim"])
        )
    if kind == "nemytskii":
        check_keys(d, "nonlinearity", {"kind", "activation"})
        if space is None:
            raise SpecError("nonlinearity: a Nemytskii map needs the space")
        return NemytskiiNonlinearity(space, _pointwise_from_name(d["activation"]))
    raise SpecError(f"unknown nonlinearity kind {kind!r}")


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
        body = {k: v for k, v in d.items() if k not in ("kind", "seed")}
        if "seed" not in d:
            raise SpecError("layer: a seeded layer needs an explicit seed")
        return make_layer(space, body, seed=int(d["seed"]))
    raise SpecError(f"unknown layer kind {kind!r}")


# ---------------------------------------------------------------------------
# residual chains and their linear heads


def chain_from_spec(d: dict):
    kind = _require_object(d, "chain").get("kind")
    if kind == "residual_chain":
        check_keys(d, "chain", {"kind", "ambient_dim", "prefix_n", "blocks"})
        blocks = tuple(network_from_spec(b) for b in d["blocks"])
        return ResidualChain(int(d["ambient_dim"]), int(d["prefix_n"]), blocks)
    if kind == "invertible_residual_chain":
        check_keys(d, "chain", {"kind", "delta", "chain"}, {"ball_radius"})
        inner = chain_from_spec(d["chain"])
        ball = d.get("ball_radius")
        return InvertibleResidualChain(
            inner, float(d["delta"]), ball_radius=None if ball is None else float(ball)
        )
    if kind == "seeded_chain":
        check_keys(
            d,
            "chain",
            {"kind", "ambient_dim", "num_blocks", "seed"},
            {"prefix_n", "delta", "block_bound", "activation", "hidden", "bias_scale", "ball_radius"},
        )
        act = d.get("activation")
        delta = d.get("delta")
        bound = float(d.get("block_bound", delta if delta is not None else 0.5))
        chain = ResidualChain.seeded(
            int(d["ambient_dim"]),
            int(d.get("prefix_n", d["ambient_dim"])),
            int(d["num_blocks"]),
            block_bound=bound,
            activation=None if act is None else _activation_from_name(act),
            hidden=d.get("hidden"),
            bias_scale=float(d.get("bias_scale", 0.3)),
            seed=int(d["seed"]),
        )
        if delta is None:
            return chain
        ball = d.get("ball_radius")
        return InvertibleResidualChain(
            chain, float(delta), ball_radius=None if ball is None else float(ball)
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
        n = d.get("axis_dim", dim)
        if n is None:
            raise SpecError("head: a reflection needs 'e' or 'axis_dim'")
        if dim is not None and int(n) != dim:
            raise SpecError(f"head: axis_dim {n} does not match the dimension {dim}")
        return Reflection.first_axis(int(n))
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
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(canonical(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


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
