"""Doubly relaxed energy of structured triples on a planar cross-section.

A structured triple is a deformation field on a 2D domain together with a
piecewise-constant disarrangement-free gradient and a director field.  Both
relaxation orders produce the same integrand

    | d(g1)/dx1 + d(g2)/dx2 - G11 - G22 |   (bulk)
    | [g1] nu1 + [g2] nu2 |                 (surface)

so ``eval_left`` and ``eval_right`` share one implementation and agree
exactly, bit for bit; both ignore the director and the out-of-plane rows.
The 3D companion functional integrates the same trace expression over a cube
with the full normal in the surface term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densities import interfacial_normal_pair
from .energy import surface_energy
from .errors import FieldError, InputError
from .fields import SbvField, _cell_blocks, _cells_to_json, _field_from_payload, _load_json
from .meshes import Mesh, build_mesh

_NORMAL_PAIR = interfacial_normal_pair()


@dataclass
class StructuredTriple:
    """(deformation, disarrangement-free gradient, director) on one mesh."""

    g: SbvField
    G: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        mesh = self.g.mesh
        if mesh.dim != 2:
            raise FieldError("structured triples live on 2D cross-section meshes")
        self.G = np.asarray(self.G, dtype=float)
        self.d = np.asarray(self.d, dtype=float)
        if self.G.shape != (mesh.ncells, 3, 2):
            raise FieldError(
                f"G must have shape {(mesh.ncells, 3, 2)}, got {self.G.shape}"
            )
        if self.d.shape != (mesh.ncells, 3):
            raise FieldError(f"d must have shape {(mesh.ncells, 3)}, got {self.d.shape}")

    @property
    def mesh(self) -> Mesh:
        return self.g.mesh


def _planar_energy(triple: StructuredTriple) -> float:
    grads = triple.g.gradients
    trace_gap = grads[:, 0, 0] + grads[:, 1, 1] - triple.G[:, 0, 0] - triple.G[:, 1, 1]
    bulk = float(np.abs(trace_gap) @ triple.mesh.cell_measures)
    surface = surface_energy(triple.g, _NORMAL_PAIR)
    return bulk + surface


def eval_left(triple: StructuredTriple) -> float:
    """Reduce-then-relax energy of the triple."""
    return _planar_energy(triple)


def eval_right(triple: StructuredTriple) -> float:
    """Relax-then-reduce energy of the triple; same arithmetic as
    :func:`eval_left`, hence exactly equal on every input."""
    return _planar_energy(triple)


def eval_F3dSD(g: SbvField, G3: np.ndarray) -> float:
    """3D disarrangement energy: planar trace gap plus full normal jumps."""
    mesh = g.mesh
    if mesh.dim != 3:
        raise FieldError("the 3D functional needs a field on a cube mesh")
    G3 = np.asarray(G3, dtype=float)
    if G3.shape != (mesh.ncells, 3, 2):
        raise FieldError(f"G3 must have shape {(mesh.ncells, 3, 2)}, got {G3.shape}")
    grads = g.gradients
    trace_gap = grads[:, 0, 0] + grads[:, 1, 1] - G3[:, 0, 0] - G3[:, 1, 1]
    bulk = float(np.abs(trace_gap) @ mesh.cell_measures)
    return bulk + surface_energy(g, _NORMAL_PAIR)


@dataclass
class PathEqualityEntry:
    left: float
    right: float

    @property
    def difference(self) -> float:
        return abs(self.left - self.right)


@dataclass
class PathEqualityReport:
    entries: list[PathEqualityEntry]

    @property
    def max_difference(self) -> float:
        return max((e.difference for e in self.entries), default=0.0)

    @property
    def all_equal(self) -> bool:
        return all(e.difference == 0.0 for e in self.entries)


def path_equality_report(triples) -> PathEqualityReport:
    """Evaluate both relaxation orders on each triple; the differences must
    vanish identically."""
    triples = list(triples)
    if not triples:
        raise InputError("path equality needs at least one triple")
    return PathEqualityReport(
        entries=[PathEqualityEntry(left=eval_left(t), right=eval_right(t)) for t in triples]
    )


def random_triple(rng: np.random.Generator, n: int = 4, scale: float = 10.0) -> StructuredTriple:
    """Random triple on the uniform n x n unit-square mesh (test fixture)."""
    mesh = build_mesh(2, n, np.array([1.0, 0.0]))
    g = SbvField(
        mesh,
        rng.uniform(-scale, scale, size=(mesh.ncells, 3, 2)),
        rng.uniform(-scale, scale, size=(mesh.ncells, 3)),
    )
    G = rng.uniform(-scale, scale, size=(mesh.ncells, 3, 2))
    d = rng.uniform(-scale, scale, size=(mesh.ncells, 3))
    return StructuredTriple(g=g, G=G, d=d)


# ---------------------------------------------------------------------------
# triple files
# ---------------------------------------------------------------------------

def triple_to_json(triple: StructuredTriple) -> str:
    g = triple.g
    return _cells_to_json(
        triple.mesh, {"gradient": g.gradients, "offset": g.offsets, "G": triple.G, "d": triple.d}
    )


def triple_from_json(text: str) -> StructuredTriple:
    return _triple_from_payload(_load_json(text, "triple"))


def _triple_from_payload(payload) -> StructuredTriple:
    """Triple of a parsed triple file."""
    field = _field_from_payload(payload)
    G = _cell_blocks(payload["cells"], "G", "triple")
    d = _cell_blocks(payload["cells"], "d", "triple")
    try:
        return StructuredTriple(g=field, G=G, d=d)
    except FieldError as exc:
        raise InputError(str(exc)) from exc
