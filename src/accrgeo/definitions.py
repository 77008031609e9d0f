"""Sparse JSON manifold definitions.

A definition file is one JSON object:

    {
      "dim": 5,
      "structure_constants": [[0, 1, 2, 1.0], ...],
      "phi": [[3, 1, 1.0], ...],
      "xi":  [1, 0, 0, 0, 0],
      "eta": [1, 0, 0, 0, 0],
      "g":   [[0, 0, 1.0], [1, 1, 1.0], ...]
    }

structure_constants entries are (i, j, k, value), the e_k-component of
[e_i, e_j]; the (j, i) counterpart is filled with the opposite sign
automatically, and listing both with inconsistent values is an error.
phi entries are (row, column, value) of the endomorphism matrix, g
entries are (row, column, value) of the metric; neither is symmetrized
implicitly, so a symmetric metric must list both triangles (diagonal
entries once). xi and eta are dense component lists. Unspecified sparse
entries are zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .geometry import LieAlgebra
from .structure import AccRStructure, metric_entry_limit, validate_structure
from .tensors import MAX_DIM, Frame, Tensor

_KNOWN_KEYS = ("dim", "structure_constants", "phi", "xi", "eta", "g")


@dataclass(frozen=True)
class ManifoldDefinition:
    """Parsed but not yet validated manifold data."""

    dim: int
    structure_constants: tuple = ()
    phi: tuple = ()
    xi: tuple = ()
    eta: tuple = ()
    g: tuple = ()

    @classmethod
    def from_dict(cls, raw) -> "ManifoldDefinition":
        if not isinstance(raw, dict):
            raise ParseError(f"definition must be a JSON object, got {type(raw).__name__}")
        unknown = sorted(set(raw) - set(_KNOWN_KEYS))
        if unknown:
            raise ParseError(f"unknown keys in definition: {', '.join(unknown)}")
        missing = sorted(set(_KNOWN_KEYS) - set(raw))
        if missing:
            raise ParseError(f"definition is missing keys: {', '.join(missing)}")
        dim = raw["dim"]
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise ParseError(f"'dim' must be an integer, got {dim!r}")
        if dim < 3 or dim % 2 == 0:
            raise ParseError(f"'dim' must be odd and >= 3, got {dim}")
        if dim > MAX_DIM:
            raise ParseError(f"'dim' must be at most {MAX_DIM}, got {dim}")

        c_entries = _sparse_entries(raw["structure_constants"], "structure_constants", 3, dim)
        phi_entries = _sparse_entries(raw["phi"], "phi", 2, dim)
        g_entries = _sparse_entries(raw["g"], "g", 2, dim)
        limit = metric_entry_limit(dim)
        for position, (_, _, value) in enumerate(g_entries):
            if not abs(value) <= limit:
                raise ParseError(
                    f"'g' entry {position}: |value| = {abs(value):.3e} exceeds {limit:.3e}, "
                    f"past which the Einstein-like fit overflows float64 at dim {dim}"
                )
        xi = _dense_vector(raw["xi"], "xi", dim)
        eta = _dense_vector(raw["eta"], "eta", dim)
        return cls(
            dim=dim,
            structure_constants=c_entries,
            phi=phi_entries,
            xi=xi,
            eta=eta,
            g=g_entries,
        )

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "structure_constants": [list(entry) for entry in self.structure_constants],
            "phi": [list(entry) for entry in self.phi],
            "xi": list(self.xi),
            "eta": list(self.eta),
            "g": [list(entry) for entry in self.g],
        }

    def build(self):
        """Materialize the definition into a validated algebra and structure.

        Antisymmetry of the bracket is filled in here; contradictions
        between explicitly listed mirror entries are parse errors. All
        geometric validation errors (Jacobi, structure identities,
        signature) propagate from the respective constructors.
        """
        frame = Frame(self.dim)
        c = np.zeros((self.dim,) * 3)
        seen = {}
        for position, (i, j, k, value) in enumerate(self.structure_constants):
            if i == j and value != 0.0:
                raise ParseError(
                    f"structure_constants entry {position}: [e_{i}, e_{i}] must vanish"
                )
            for key, signed in (((k, i, j), value), ((k, j, i), -value)):
                if key in seen and seen[key] != signed:
                    raise ParseError(
                        f"structure_constants entry {position}: conflicts with an "
                        f"earlier entry at index {key}"
                    )
                seen[key] = signed
                c[key] = signed
        phi = _fill_matrix(self.phi, "phi", self.dim)
        g = _fill_matrix(self.g, "g", self.dim)
        alg = LieAlgebra(frame, Tensor(frame, c))
        s = validate_structure(phi, np.asarray(self.xi), np.asarray(self.eta), g, frame)
        return alg, s

    @classmethod
    def from_structure(cls, alg: LieAlgebra, s: AccRStructure) -> "ManifoldDefinition":
        """Serialize built objects back to sparse entry lists.

        Bracket entries are emitted once per unordered pair (i < j); phi
        and g are emitted entry by entry, so g carries both triangles
        explicitly. Entry order is lexicographic for determinism.
        """
        dim = s.frame.dim
        c_entries = []
        for i in range(dim):
            for j in range(i + 1, dim):
                for k in range(dim):
                    value = alg.c.data[k, i, j]
                    if value != 0.0:
                        c_entries.append((i, j, k, float(value)))
        phi_entries = [
            (i, j, float(s.phi.data[i, j]))
            for i in range(dim)
            for j in range(dim)
            if s.phi.data[i, j] != 0.0
        ]
        g_entries = [
            (i, j, float(s.g.matrix[i, j]))
            for i in range(dim)
            for j in range(dim)
            if s.g.matrix[i, j] != 0.0
        ]
        return cls(
            dim=dim,
            structure_constants=tuple(c_entries),
            phi=tuple(phi_entries),
            xi=tuple(float(v) for v in s.xi.data),
            eta=tuple(float(v) for v in s.eta.data),
            g=tuple(g_entries),
        )


def parse_definition(text: str) -> ManifoldDefinition:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        # json's decoder recurses once per nested array or object
        raise ParseError("invalid JSON: arrays or objects nested too deeply") from None
    return ManifoldDefinition.from_dict(raw)


def load_definition(path) -> ManifoldDefinition:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return parse_definition(text)


def save_definition(definition: ManifoldDefinition, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(definition.to_dict(), handle, indent=2)
        handle.write("\n")


def _sparse_entries(raw, name, index_count, dim):
    if not isinstance(raw, list):
        raise ParseError(f"'{name}' must be a list of entries")
    entries = []
    for position, entry in enumerate(raw):
        if not isinstance(entry, list) or len(entry) != index_count + 1:
            raise ParseError(
                f"'{name}' entry {position}: expected [{index_count} indices, value]"
            )
        *indices, value = entry
        for axis, index in enumerate(indices):
            if isinstance(index, bool) or not isinstance(index, int):
                raise ParseError(
                    f"'{name}' entry {position}: index {axis} must be an integer"
                )
            if not 0 <= index < dim:
                raise ParseError(
                    f"'{name}' entry {position}: index {index} out of range for dim {dim}"
                )
        entries.append(tuple(indices) + (_number(value, f"'{name}' entry {position}: value"),))
    return tuple(entries)


def _dense_vector(raw, name, dim):
    if not isinstance(raw, list):
        raise ParseError(f"'{name}' must be a list of {dim} numbers")
    if len(raw) != dim:
        raise ParseError(f"'{name}' must have exactly {dim} components, got {len(raw)}")
    return tuple(
        _number(value, f"'{name}' component {position}") for position, value in enumerate(raw)
    )


def _number(value, where: str) -> float:
    """value as a float; JSON admits NaN, Infinity and literals past the
    float range, none of which is a coordinate."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{where} must be a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(f"{where} must be finite, got {number}")
    return number


def _fill_matrix(entries, name, dim):
    matrix = np.zeros((dim, dim))
    seen = {}
    for position, (i, j, value) in enumerate(entries):
        if (i, j) in seen and seen[(i, j)] != value:
            raise ParseError(
                f"'{name}' entry {position}: duplicate index ({i}, {j}) with a "
                f"different value"
            )
        seen[(i, j)] = value
        matrix[i, j] = value
    return matrix
