import json

import numpy as np
import pytest


from sdrelax.cli import main
from sdrelax.fields import SbvField
from sdrelax.functionals import StructuredTriple, triple_to_json
from sdrelax.meshes import build_mesh


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_density_examples(capsys):
    code, out, _ = run(capsys, "density", "--kind", "h3d2d", "--lambda", "1,0,0", "--eta", "1,0")
    assert code == 0 and float(out) == 1.0
    code, out, _ = run(
        capsys, "density", "--kind", "w3d2dsd", "--A", "1,0,0,1,0,0", "--B", "0,0,0,0,0,0"
    )
    assert code == 0 and float(out) == 2.0
    code, out, _ = run(capsys, "density", "--kind", "psi1bar", "--lambda", "0,0,1", "--eta", "0,1")
    assert code == 0 and float(out) == 0.0
    code, out, _ = run(capsys, "density", "--kind", "w3dsd",
                       "--A", "1,0,0,0,1,0,0,0,1", "--B", "0,0,0,0,0,0")
    assert code == 0 and float(out) == 2.0


def test_density_malformed_input(capsys):
    code, _, err = run(capsys, "density", "--kind", "h3d2d", "--lambda", "1,oops,0", "--eta", "1,0")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "density", "--kind", "h3d2d", "--lambda", "1,0", "--eta", "1,0")
    assert code == 2


def test_density_non_finite_input(capsys):
    for lam in ("nan,0,0", "1,inf,0", "1,0,-inf"):
        code, out, err = run(capsys, "density", "--kind", "h3d2d", "--lambda", lam, "--eta", "1,0")
        assert code == 2 and "finite" in err and out == ""


def test_verify_suites_pass(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "closed-forms", "--samples", "300", "--seed", "0")
    assert code == 0 and "path-equality-bulk,True" in out
    code, out, _ = run(capsys, "verify", "--suite", "gauss-green", "--samples", "15", "--seed", "0")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--suite", "cell", "--n", "4", "--samples", "6", "--seed", "0")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        cells = line.split(",")
        assert cells[1] == "True"


@pytest.mark.parametrize("argv, message", [
    (["--suite", "cell", "--n", "0"], "refinement --n must be >= 1, got 0"),
    (["--suite", "cell", "--n", "-3"], "refinement --n must be >= 1, got -3"),
    (["--suite", "cell", "--samples", "0"], "samples must be >= 1"),
    (["--suite", "gauss-green", "--samples", "0"], "samples must be >= 1"),
    (["--suite", "gauss-green", "--samples", "-1"], "samples must be >= 1"),
    (["--suite", "closed-forms", "--samples", "-5"], "samples must be >= 1"),
], ids=["cell-n0", "cell-n-3", "cell-samples0", "gg-samples0", "gg-samples-1", "cf-samples-5"])
def test_verify_rejects_empty_runs(capsys, argv, message):
    # a zero refinement or sample count used to solve at n = 8 or report
    # over no samples, and exit 0
    code, out, err = run(capsys, "verify", *argv, "--seed", "0")
    assert code == 2 and out == "" and err == f"error: {message}\n"


def test_verify_json_format_and_outfile(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "verify", "--suite", "closed-forms", "--samples", "100", "--seed", "3",
        "--format", "json", "--out", str(out_file),
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["command"] == "verify:closed-forms"
    assert payload["passed"] is True
    assert out == out_file.read_text()


_VERIFY = {
    "closed-forms": ["--samples", "50"],
    "cell": ["--n", "4", "--samples", "4"],
    "gauss-green": ["--samples", "4"],
}
_SEQUENCE = {
    "gamma1": ["--lambda", "1,2,0.5", "--eta", "0.6,0.8"],
    "frame-w1": ["--M", "1,0,0.5,2,0,1"],
    "staircase": ["--A", "1,0,0,1,0,0", "--B", "0,0.5,0,0,0,0"],
}
_REPORTS = {
    **{f"verify-{suite}-{fmt}": ["verify", "--suite", suite, *args, "--seed", "7", "--format", fmt]
       for suite, args in _VERIFY.items() for fmt in ("csv", "json")},
    **{f"sequence-{kind}": ["sequence", "--kind", kind, *args, "--n-list", "2,4,8"]
       for kind, args in _SEQUENCE.items()},
}


@pytest.mark.parametrize("argv", list(_REPORTS.values()), ids=list(_REPORTS))
def test_report_determinism(capsys, argv):
    # the first run builds its grids and their kept records, the second reads
    # them: a cold and a warm report must be byte-identical
    build_mesh.cache_clear()
    first = run(capsys, *argv)
    assert first[0] == 0
    assert run(capsys, *argv) == first


def test_sequence_gamma1(capsys):
    code, out, _ = run(
        capsys,
        "sequence", "--kind", "gamma1", "--lambda", "1,0,0", "--eta", "0,1",
        "--n-list", "2,4,8,16,32,64",
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0].startswith("n,energy,bound,slope_so_far")
    assert len(rows) == 7
    for line in rows[1:]:
        n, energy, bound = line.split(",")[:3]
        assert float(energy) <= float(bound) + 1e-12


def test_sequence_frame_w1_slope(capsys):
    code, out, _ = run(
        capsys,
        "sequence", "--kind", "frame-w1", "--M", "1,0,0,1,0,0", "--n-list", "4,8,16,32",
    )
    assert code == 0
    last = out.strip().splitlines()[-1].split(",")
    assert float(last[3]) <= -0.8


def test_sequence_zero_jump_rows(capsys):
    code, out, _ = run(
        capsys,
        "sequence", "--kind", "gamma1", "--lambda", "0,0,0", "--eta", "0,1",
        "--n-list", "2,4,8",
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert float(line.split(",")[1]) == 0.0


def test_sequence_below_threshold_annotation(capsys):
    # small out-of-plane gradient row: certification threshold is > 3, the
    # rows are annotated but the bound itself still holds
    code, out, _ = run(
        capsys,
        "sequence", "--kind", "frame-w1", "--M", "1,0,0,0,0.1,0", "--n-list", "4,8",
    )
    lines = out.strip().splitlines()
    assert code == 0
    assert "below-threshold" in lines[1]


def test_failed_check_exits_one(capsys, monkeypatch):
    import sdrelax.densities as dens

    def broken():
        return dens.DensityPair(
            bulk=lambda A: 0.0,
            surface=lambda lam, nu: abs(float(np.dot(lam, nu))) + 1.0,
            p=2.0,
        )

    monkeypatch.setitem(dens.BUILTIN_DENSITIES, "broken", broken)
    code, out, _ = run(capsys, "check-hypotheses", "--density", "broken", "--samples", "200")
    assert code == 1
    assert "H3,False" in out


def test_functional_roundtrip(tmp_path, capsys):
    mesh = build_mesh(2, 2, np.array([1.0, 0.0]))
    A = np.arange(6.0).reshape(3, 2)
    triple = StructuredTriple(
        g=SbvField.affine(mesh, A),
        G=np.tile(A, (mesh.ncells, 1, 1)),
        d=np.zeros((mesh.ncells, 3)),
    )
    f = tmp_path / "triple.json"
    f.write_text(triple_to_json(triple))
    code, out, _ = run(capsys, "functional", "--file", str(f))
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[0]) == 0.0 and float(row[1]) == 0.0 and float(row[2]) == 0.0


def test_functional_malformed_file(tmp_path, capsys):
    f = tmp_path / "bad.json"
    payload = {
        "dimension": 2,
        "n": 2,
        "orientation": [1.0, 0.0],
        "cells": [
            {"gradient": [[0, 0], [0, 0], [0, 0]], "offset": [0, 0, 0], "G": [[0, 0]] * 3, "d": [0, 0, 0]}
        ]
        * 3,
    }
    f.write_text(json.dumps(payload))
    code, _, err = run(capsys, "functional", "--file", str(f))
    assert code == 2
    assert "cells" in err or "cell" in err
    code, _, err = run(capsys, "functional", "--file", str(tmp_path / "missing.json"))
    assert code == 2


def test_functional_rejects_a_nan_orientation(tmp_path, capsys):
    mesh = build_mesh(2, 2, np.array([1.0, 0.0]))
    triple = StructuredTriple(
        g=SbvField.affine(mesh, np.zeros((3, 2))), G=np.zeros((mesh.ncells, 3, 2)), d=np.zeros((mesh.ncells, 3))
    )
    payload = json.loads(triple_to_json(triple))
    payload["orientation"] = [float("nan"), 0.0]  # written as NaN, which json reads back
    f = tmp_path / "nan.json"
    f.write_text(json.dumps(payload))
    code, out, err = run(capsys, "functional", "--file", str(f))
    assert code == 2 and out == ""
    assert err == "error: orientation must be a unit vector, got |v|=np.float64(nan)\n"


def test_functional_rejects_non_finite_triple_and_3d_files(tmp_path, capsys):
    # json writes and reads NaN and Infinity; a used entry of G or d that is
    # one is an input error, in the 2D triple and the 3D file alike
    mesh = build_mesh(2, 2, np.array([1.0, 0.0]))
    triple = StructuredTriple(
        g=SbvField.affine(mesh, np.zeros((3, 2))), G=np.zeros((mesh.ncells, 3, 2)), d=np.zeros((mesh.ncells, 3))
    )
    for key, value in (("G", [[0.0, 0.0], [0.0, 0.0], [float("nan"), 0.0]]), ("d", [float("inf"), 0.0, 0.0])):
        payload = json.loads(triple_to_json(triple))
        payload["cells"][1][key] = value
        f = tmp_path / "triple.json"
        f.write_text(json.dumps(payload))
        code, out, err = run(capsys, "functional", "--file", str(f))
        assert (code, out, err) == (2, "", "error: G and d must be finite\n")
    cell = {"gradient": np.eye(3).tolist(), "offset": [0.0] * 3, "G": [[0.0, float("-inf")], [0.0] * 2, [0.0] * 2]}
    payload = {"dimension": 3, "n": 1, "orientation": [1.0, 0.0, 0.0], "cells": [cell]}
    f = tmp_path / "field3d.json"
    f.write_text(json.dumps(payload))
    code, out, err = run(capsys, "functional", "--file", str(f))
    assert (code, out, err) == (2, "", "error: G3 must be finite\n")


def _malformed_cells(payload):
    del payload["cells"][2]["offset"]


def _ragged_gradient(payload):
    payload["cells"][1]["gradient"][2] = [0.0]


def _short_gradient(payload):
    cells = payload["cells"]
    cells[3]["gradient"] = cells[3]["gradient"][:2]


def _number_cell(payload):
    payload["cells"][2] = 7


def _string_cell(payload):
    payload["cells"][1] = "cell"


def _bad_G(payload):
    payload["cells"][3]["G"] = "oops"


def _short_d(payload):
    payload["cells"][2]["d"] = [0.0, 0.0]


def _fractional_n(payload):
    payload["n"] = 2.9


def _string_n(payload):
    payload["n"] = "2"


def _fractional_dimension(payload):
    payload["dimension"] = 2.7


@pytest.mark.parametrize(
    "edit, message",
    [
        (_malformed_cells, "field file cell 2 has a missing or malformed 'offset'"),
        (_ragged_gradient, "field file cell 1 has a missing or malformed 'gradient'"),
        (_short_gradient, "field file cell 3 has a missing or malformed 'gradient'"),
        (_number_cell, "field file cell 2 has a missing or malformed 'gradient'"),
        (_string_cell, "field file cell 1 has a missing or malformed 'gradient'"),
        (_bad_G, "triple file cell 3 has a missing or malformed 'G'"),
        (_short_d, "triple file cell 2 has a missing or malformed 'd'"),
        # the header's integers, read before any cell: 2.0 would be 2, 2.9 is not
        (_fractional_n, "field file 'n' must be a positive integer, got 2.9"),
        (_string_n, "field file 'n' must be a positive integer, got '2'"),
        (_fractional_dimension, "field file 'dimension' must be a positive integer, got 2.7"),
    ],
)
def test_functional_names_the_first_malformed_cell(tmp_path, capsys, edit, message):
    mesh = build_mesh(2, 2, np.array([1.0, 0.0]))
    A = np.arange(6.0).reshape(3, 2)
    triple = StructuredTriple(
        g=SbvField.affine(mesh, A), G=np.tile(A, (mesh.ncells, 1, 1)), d=np.zeros((mesh.ncells, 3))
    )
    payload = json.loads(triple_to_json(triple))
    edit(payload)
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(payload))
    code, out, err = run(capsys, "functional", "--file", str(f))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("cells, name", [({"0": {}}, "dict"), ("cells", "str"), (4, "int")])
def test_functional_rejects_cells_that_are_not_a_list(tmp_path, capsys, cells, name):
    payload = {"dimension": 2, "n": 2, "orientation": [1.0, 0.0], "cells": cells}
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(payload))
    code, out, err = run(capsys, "functional", "--file", str(f))
    assert (code, out, err) == (2, "", f"error: field file 'cells' must be a list, got {name}\n")


def test_functional_3d_field_file(tmp_path, capsys):
    # unit-gradient planar deformation on the cube with zero G: value 2
    B = np.zeros((3, 3))
    B[0, 0] = B[1, 1] = 1.0
    payload = {
        "dimension": 3,
        "n": 1,
        "orientation": [1.0, 0.0, 0.0],
        "cells": [
            {
                "gradient": B.tolist(),
                "offset": [0.0, 0.0, 0.0],
                "G": np.zeros((3, 2)).tolist(),
            }
        ],
    }
    f = tmp_path / "field3d.json"
    f.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "functional", "--file", str(f))
    assert code == 0
    assert float(out.strip().splitlines()[1].split(",")[0]) == 2.0

    del payload["cells"][0]["G"]
    f.write_text(json.dumps(payload))
    code, _, err = run(capsys, "functional", "--file", str(f))
    assert code == 2 and "G" in err


def test_check_hypotheses_cli(capsys):
    code, out, _ = run(capsys, "check-hypotheses", "--density", "interfacial-normal",
                       "--samples", "400")
    assert code == 0
    assert "H3,True" in out and "H4,True" in out
    code, _, err = run(capsys, "check-hypotheses", "--density", "bogus")
    assert code == 2


def test_quiet_flag_silences_stdout(tmp_path, capsys):
    out_file = tmp_path / "r.csv"
    code, out, _ = run(
        capsys,
        "verify", "--suite", "closed-forms", "--samples", "50", "--seed", "0",
        "--quiet", "--out", str(out_file),
    )
    assert code == 0 and out == ""
    assert out_file.read_text().startswith("check,")
