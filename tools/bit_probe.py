"""Bit-level digest of what sdrelax computes, to show two source trees agree.

    python tools/bit_probe.py [TREE]            # print TREE's digest (default: this checkout)
    python tools/bit_probe.py --compare A B     # digest both trees, report where they differ

The probe imports ``sdrelax`` from ``TREE/src`` and evaluates a fixed,
seeded set of inputs.  Every value is recorded by its exact bytes (floats
by ``float.hex`` or the array's raw bytes, text as UTF-8, an exception by
its type and message), labelled, and hashed section by section:

* ``solve``: every chain kind at even and odd n (2D n = 1..16, 31, 32; 3D
  n = 1..8), data scaled by 1e-9, 1e-3, 1, 1e3 and 1e12: ``value``,
  ``value_exact``, the minimizer's offsets and gradients, the trace gap
  against the problem's datum and ``reevaluate``;
* ``degenerate``: the same of chain problems whose layouts (the index
  tables a solve keeps on its grid) differ from generic data's: affine data
  with a zero or constant mismatch, step data with coinciding breakpoints;
* ``solve-warm``, ``degenerate-warm``: both again, in one shuffled pass in
  the same process, so that solves with other layouts come between;
  ``solve-cold``, ``degenerate-cold``: both again, the grid cache cleared
  before every solve.  Each must equal its section; the probe exits with
  status 1 if one does not;
* ``dense``: dense random, blocked (gradients and offsets shared by cell
  blocks) and one-gradient fields in 2D and 3D at the same scales:
  ``surface_energy`` under the normal and the psi1 pair, exact and
  overestimated, with no datum, an affine and a step datum;
  ``gauss_green_residual``; trace gaps against both data; the field file;
* ``competitors``: the three competitor sequences at n = 2..12, 16, 32,
  ``FRAME_W1`` also with zero entries in ``M``: gradients, offsets, the
  mesh's breakpoints, frame and boundary tables, and the field file;
* ``decay``: ``decay_table`` rows of the three sequences.

Run with ``OPENBLAS_NUM_THREADS=1`` (``--compare`` sets it for its
children) so that no product's summation order depends on the thread count.
Uses numpy and the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALES = (1e-9, 1e-3, 1.0, 1e3, 1e12)


class Digest:
    """Labelled values by their exact bytes, grouped by section."""

    def __init__(self):
        self.sections: dict[str, dict[str, str]] = {}

    def add(self, section: str, label: str, value) -> None:
        self.sections.setdefault(section, {})[label] = hashlib.sha256(_bytes(value)).hexdigest()[:16]

    def guarded(self, section: str, label: str, compute) -> None:
        """Record ``compute()``, or the exception it raises."""
        try:
            value = compute()
        except Exception as exc:  # recorded: both trees must fail alike
            value = f"{type(exc).__name__}: {exc}"
        self.add(section, label, value)

    def summary(self) -> dict:
        out = {}
        for section, items in self.sections.items():
            whole = hashlib.sha256("".join(f"{k}={v}\n" for k, v in items.items()).encode())
            out[section] = {"count": len(items), "sha256": whole.hexdigest(), "items": items}
        return out


def _bytes(value) -> bytes:
    import numpy as np

    if isinstance(value, float):
        return value.hex().encode()
    if isinstance(value, str):
        return value.encode()
    if isinstance(value, np.ndarray):
        return str((value.dtype.str, value.shape)).encode() + np.ascontiguousarray(value).tobytes()
    if isinstance(value, (tuple, list)):
        return b"(" + b",".join(_bytes(v) for v in value) + b")"
    return repr(value).encode()


def _solve_cases(sd, np):
    """The ``solve`` section's ``(label, problem)`` pairs, in order."""
    for kind in sd.Kind:
        dim = 3 if kind in (sd.Kind.W_3DSD, sd.Kind.H_3DSD) else 2
        for n in range(1, 9) if dim == 3 else [*range(1, 17), 31, 32]:
            rng = np.random.default_rng([7, list(sd.Kind).index(kind), n])
            eta = rng.normal(size=dim)
            base = dict(
                A=rng.uniform(-5, 5, (3, 3 if kind is sd.Kind.W_3DSD else 2)),
                B=rng.uniform(-5, 5, (3, 2)),
                d=rng.uniform(-5, 5, 3),
                lam=rng.uniform(-5, 5, 3),
            )
            for s in SCALES:
                data = {k: v * s for k, v in base.items()}
                problem = sd.CellProblem(kind=kind, n=n, orientation=eta / np.linalg.norm(eta), **data)
                yield f"{kind.value}/n={n}/s={s:g}", problem


def _degenerate_cases(sd, np):
    """The ``degenerate`` section's pairs: chain problems on the solve
    section's grids whose layouts differ from generic data's.  Affine data
    whose mismatch ``(B - A) x`` is zero, constant on every boundary piece
    (``B - A`` diagonal) or on axis 0's pieces only; step data on the
    axis-aligned mesh with every breakpoint 0 (``lam = 0``) or those of
    axis 0 only (``lam`` normal to the orientation)."""
    offsets = {"zero": np.zeros((3, 2)), "constant": np.diag([1.5, -2.0, 0.0])[:, :2],
               "axis0": np.array([[1.5, 0.0], [0.7, -2.0], [0.0, 0.0]])}
    for dim, sizes in ((2, (3, 4, 31, 32)), (3, (3, 4, 7, 8))):
        affine, step = (sd.Kind.W_3D2DSD, sd.Kind.H_3D2D) if dim == 2 else (sd.Kind.W_3DSD, sd.Kind.H_3DSD)
        e1 = np.eye(dim)[0]
        for n in sizes:
            A = np.random.default_rng([17, dim, n]).uniform(-5, 5, (3, dim))
            for s in SCALES:
                for name, offset in offsets.items():
                    B = (A[:, :2] + offset) * s
                    yield f"{affine.value}/n={n}/s={s:g}/{name}", sd.CellProblem(kind=affine, n=n, A=A * s, B=B)
                for name, lam in (("lam=0", [0.0, 0.0, 0.0]), ("lam.e1=0", [0.0, 1.5, -2.0])):
                    lam = np.array(lam) * s
                    yield f"{step.value}/n={n}/s={s:g}/{name}", sd.CellProblem(kind=step, n=n, lam=lam, orientation=e1)


def _record_solve(sd, digest: Digest, section: str, label: str, problem) -> None:
    from sdrelax.solver import KINDS

    try:
        r = sd.solve(problem)
    except Exception as exc:
        digest.add(section, label, f"{type(exc).__name__}: {exc}")
        return
    field, spec = r.minimizer, KINDS[problem.kind]
    digest.add(section, label + "/value", (r.value, r.value_exact))
    datum = spec.datum(problem) if spec.pin else sd.StepDatum(problem.lam, field.mesh.orientation)
    digest.guarded(section, label + "/gap", lambda: sd.boundary_trace_gap(field, datum))
    digest.add(section, label + "/field", (field.offsets, field.gradients, field.mesh.frame))
    digest.guarded(section, label + "/reevaluate", lambda: r.reevaluate(problem))


def probe_solve(sd, np, digest: Digest) -> None:
    """The solve and degenerate sections in order, then both again in one
    shuffled pass (``-warm``: grids and their layouts kept) and in one pass
    that clears the grid cache before every solve (``-cold``), recorded in
    the first pass's label order."""
    cases = {"solve": list(_solve_cases(sd, np)), "degenerate": list(_degenerate_cases(sd, np))}
    every = [(section, *case) for section, pairs in cases.items() for case in pairs]
    for case in every:
        _record_solve(sd, digest, *case)
    shuffled = [every[i] for i in np.random.default_rng(19).permutation(len(every))]
    for suffix, order in (("warm", shuffled), ("cold", every)):
        repeat = Digest()
        for case in order:
            if suffix == "cold":
                sd.build_mesh.cache_clear()
            _record_solve(sd, repeat, *case)
        for section in cases:
            items, kept = repeat.sections[section], digest.sections.setdefault(f"{section}-{suffix}", {})
            for label in digest.sections[section]:
                kept[label] = items.get(label, "missing")


def disagreeing_passes(summary: dict) -> list[str]:
    """The warm and cold passes whose digest differs from their section's."""
    return [
        f"{section}-{suffix}" for section in ("solve", "degenerate") for suffix in ("warm", "cold")
        if summary[f"{section}-{suffix}"]["sha256"] != summary[section]["sha256"]
    ]


def _dense_fields(sd, np, dim, n, rng):
    """A dense random field, a blocked one and a one-gradient one."""
    ncells = n**dim
    eta = rng.normal(size=dim)
    eta /= np.linalg.norm(eta)
    mesh = sd.build_mesh(dim, n, eta)
    grads = rng.uniform(-5, 5, (ncells, 3, dim))
    offsets = rng.uniform(-5, 5, (ncells, 3))
    blocks = np.arange(ncells) // max(1, ncells // 3)
    shared = rng.uniform(-5, 5, (4, 3, dim))
    shared[1, 2] = 0.0  # a block whose jumps to its equal neighbours have no third component
    yield "dense", mesh, grads, offsets
    yield "blocked", mesh, shared[blocks], np.round(offsets[blocks], 1)
    yield "one-gradient", mesh, np.broadcast_to(grads[0], grads.shape), offsets


def probe_dense(sd, np, digest: Digest) -> None:
    from sdrelax.energy import surface_energy

    pairs = {"normal": sd.interfacial_normal_pair(), "psi1": sd.psi1_pair()}
    for dim, sizes in ((2, (1, 2, 3, 5, 8, 16, 32)), (3, (1, 2, 3, 4, 6, 8))):
        for n in sizes:
            rng = np.random.default_rng([11, dim, n])
            A, lam = rng.uniform(-5, 5, (3, dim)), rng.uniform(-5, 5, 3)
            for name, mesh, grads, offsets in _dense_fields(sd, np, dim, n, rng):
                for s in SCALES:
                    label = f"{dim}D/n={n}/{name}/s={s:g}"
                    field = sd.SbvField(mesh, grads * s, offsets * s)
                    data = {
                        "none": None,
                        "affine": sd.AffineDatum(A * s),
                        "step": sd.StepDatum(lam * s, mesh.orientation),
                    }
                    for pair, density in pairs.items():
                        for datum_name, datum in data.items():
                            for over in (False, True):
                                digest.guarded(
                                    "dense",
                                    f"{label}/energy/{pair}/{datum_name}/over={over}",
                                    lambda: surface_energy(field, density, datum=datum, overestimate=over),
                                )
                    digest.guarded("dense", label + "/residual", lambda: sd.gauss_green_residual(field))
                    for datum_name in ("affine", "step"):
                        digest.guarded(
                            "dense", f"{label}/gap/{datum_name}",
                            lambda: sd.boundary_trace_gap(field, data[datum_name]),
                        )
                    if n <= 8:
                        digest.add("dense", label + "/json", sd.field_to_json(field))


def _competitor_params(sd, np):
    rng = np.random.default_rng(13)
    for s in SCALES:
        M = rng.uniform(-5, 5, (3, 2)) * s
        yield f"FRAME_W1/s={s:g}", sd.SequenceParams(kind="FRAME_W1", n=2, M=M)
        lam, eta = rng.uniform(-5, 5, 3) * s, rng.normal(size=2)
        yield f"GAMMA1_SPLIT/s={s:g}", sd.SequenceParams(
            kind="GAMMA1_SPLIT", n=2, lam=lam, eta=eta / np.linalg.norm(eta)
        )
        A, B = rng.uniform(-5, 5, (3, 2)) * s, rng.uniform(-5, 5, (3, 2)) * s
        yield f"STAIRCASE_TRACE/s={s:g}", sd.SequenceParams(kind="STAIRCASE_TRACE", n=2, A=A, B=B)
    for i, zeros in enumerate(([2, 0], [2, 1], [0, 0], [1, 1], [2, 0, 2, 1])):
        M = rng.uniform(-5, 5, (3, 2))
        M[tuple(np.reshape(zeros, (-1, 2)).T)] = 0.0
        yield f"FRAME_W1/zeros={i}", sd.SequenceParams(kind="FRAME_W1", n=2, M=M)
    yield "FRAME_W1/negative-zeros", sd.SequenceParams(kind="FRAME_W1", n=2, M=-np.zeros((3, 2)))


def probe_competitors(sd, np, digest: Digest) -> None:
    for name, params in _competitor_params(sd, np):
        for n in [*range(2, 13), 16, 32]:
            field = sd.build(params.with_n(n))
            mesh = field.mesh
            label = f"{name}/n={n}"
            digest.add("competitors", label + "/field", (field.gradients, field.offsets))
            digest.add(
                "competitors", label + "/mesh",
                (*mesh.axis_breaks, mesh.frame, mesh.bnd_cell, mesh.bnd_measure, mesh.bnd_corners),
            )
            digest.add("competitors", label + "/json", sd.field_to_json(field))


def probe_decay(sd, np, digest: Digest) -> None:
    pairs = {"normal": sd.interfacial_normal_pair(), "psi1": sd.psi1_pair()}
    for name, params in _competitor_params(sd, np):
        for pair, density in pairs.items():
            rows = sd.decay_table(params, density, (2, 3, 4, 8, 16, 32, 64))
            for row in rows:
                digest.add(
                    "decay", f"{name}/{pair}/n={row.n}",
                    (row.energy, row.bound, row.slope_so_far, row.note),
                )


def tree_digest(tree: Path) -> dict:
    sys.path.insert(0, str(tree / "src"))
    import numpy as np

    import sdrelax as sd

    if not Path(sd.__file__).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"sdrelax was imported from {sd.__file__}, not from {tree}")
    digest = Digest()
    for probe in (probe_solve, probe_dense, probe_competitors, probe_decay):
        probe(sd, np, digest)
    return digest.summary()


def compare(a: Path, b: Path) -> int:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    digests = []
    for tree in (a, b):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--json", str(tree)]
        out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout
        digests.append(json.loads(out))
    same = True
    for section in sorted(set(digests[0]) | set(digests[1])):
        da, db = (d.get(section, {"count": 0, "sha256": "", "items": {}}) for d in digests)
        if da["sha256"] == db["sha256"]:
            print(f"{section}: identical ({da['count']} values)")
            continue
        same = False
        differ = [k for k in da["items"] if da["items"][k] != db["items"].get(k)]
        differ += [k for k in db["items"] if k not in da["items"]]
        print(f"{section}: {len(differ)} of {max(da['count'], db['count'])} values differ")
        for label in differ[:10]:
            print(f"  {label}")
    for tree, digest in zip((a, b), digests):
        for section in disagreeing_passes(digest):
            same = False
            print(f"{tree}: {section} differs from {section.rsplit('-', 1)[0]}")
    print("IDENTICAL" if same else "DIFFERENT")
    return 0 if same else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("tree", nargs="?", default=str(ROOT), help="source tree to probe")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"), help="probe two trees and compare")
    p.add_argument("--json", action="store_true", help="print every labelled item as JSON")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*(Path(t) for t in args.compare))
    summary = tree_digest(Path(args.tree))
    if args.json:
        print(json.dumps(summary))
    else:
        for section, d in summary.items():
            print(f"{section}: {d['count']} values, sha256 {d['sha256']}")
    for section in disagreeing_passes(summary):
        print(f"{section} differs from {section.rsplit('-', 1)[0]}", file=sys.stderr)
    return 1 if disagreeing_passes(summary) else 0


if __name__ == "__main__":
    sys.exit(main())
