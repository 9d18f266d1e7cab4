import json

import qgring.cli
import qgring.components
from qgring.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_a4_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "analyze", "A4")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["group"]["order"] == 12
    assert data["matrix_count"] == 1
    assert data["nd"]["verdict"] == "HasND"
    assert data["properties"]["ssn"] is True
    assert data["prediction"]["one_matrix"] is True
    assert data["prediction"]["agreement"] is True


def test_analyze_c3c8(capsys):
    code, out, _ = run_cli(capsys, "--json", "--budget", "3000",
                           "analyze", "SdCyc(3,8,2)")
    assert code == 0
    data = json.loads(out)
    assert data["properties"]["ssn"] is True
    assert data["matrix_count"] == 2
    assert data["nd"]["verdict"] in ("NotND", "Unknown")
    assert data["nd"]["verdict"] != "HasND"
    assert data["prediction"]["family"] == "nonfaithful"
    assert data["prediction"]["one_matrix"] is False


def test_analyze_trivial_group(capsys):
    code, out, _ = run_cli(capsys, "--json", "analyze", "C(1)")
    assert code == 0
    data = json.loads(out)
    assert data["group"]["order"] == 1
    assert len(data["pcis"]) == 1
    assert data["matrix_count"] == 0


def test_analyze_exit_codes(capsys):
    code, _, err = run_cli(capsys, "analyze", "NotAGroup(")
    assert code == 2 and err
    code, _, err = run_cli(capsys, "analyze", "C(999)")
    assert code == 3 and err


def test_analyze_json_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "--json", "--seed", "5", "analyze", "D12")
    code2, out2, _ = run_cli(capsys, "--json", "--seed", "5", "analyze", "D12")
    assert code1 == code2 == 0
    assert out1 == out2


def test_analyze_human_output(capsys):
    code, out, _ = run_cli(capsys, "analyze", "Q(12)")
    assert code == 0
    assert "matrix components: 1" in out
    assert "HasND" in out


def test_sweep_bj1(capsys):
    code, out, _ = run_cli(capsys, "--json", "sweep", "BJ1",
                           "--p", "2:3", "--m", "2:3", "--n", "1:2")
    assert code == 0
    data = json.loads(out)
    rows = data["rows"]
    assert all(r["agreement"] for r in rows if "agreement" in r)
    by_params = {tuple(sorted(r["params"].items())): r for r in rows}
    key = tuple(sorted({"p": 2, "m": 2, "n": 2}.items()))
    assert by_params[key]["predicted_one_matrix"] is True
    for p, m in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        key = tuple(sorted({"p": p, "m": m, "n": 1}.items()))
        assert by_params[key]["predicted_one_matrix"] is True


def test_sweep_repunit_rows(capsys):
    code, out, _ = run_cli(capsys, "--json", "sweep", "repunit",
                           "--n", "2:5", "--p", "2:7")
    assert code == 0
    rows = json.loads(out)["rows"]
    params = {(r["params"]["p"], r["params"]["q"]) for r in rows}
    assert params == {(2, 3), (2, 7), (2, 31), (3, 13), (5, 31), (7, 2801)}
    computed = {(r["params"]["p"], r["params"]["q"]): r.get("agreement")
                for r in rows}
    assert computed[(2, 3)] is True  # A4, computable under the cap
    assert computed[(2, 31)] is None  # order 992 exceeds the cap


def test_sweep_nonfaithful(capsys):
    code, out, _ = run_cli(capsys, "--json", "sweep", "nonfaithful",
                           "--p", "7", "--q", "3", "--k", "2:4")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 3
    assert all(r["predicted_one_matrix"] for r in rows)
    assert all(r["agreement"] for r in rows if "agreement" in r)


def test_sweep_unknown_family(capsys):
    code, _, err = run_cli(capsys, "sweep", "nope")
    assert code == 2 and "unknown family" in err


def test_verify_theorems_filter(capsys):
    code, out, _ = run_cli(capsys, "--json", "verify-theorems",
                           "--only", "witnesses,amitsur")
    assert code == 0
    data = json.loads(out)
    assert data["failed"] == 0
    cats = {r["category"] for r in data["rows"]}
    assert cats == {"witnesses", "amitsur"}
    code, _, err = run_cli(capsys, "verify-theorems", "--only", "bogus")
    assert code == 2


def test_catalog(capsys):
    code, out, _ = run_cli(capsys, "--json", "catalog")
    assert code == 0
    data = json.loads(out)
    names = {g["name"] for g in data["groups"]}
    assert {"A4", "A5", "D12", "Q8", "C3C3rC8", "BJ9"} <= names
    orders = {g["name"]: g["order"] for g in data["groups"]}
    assert orders["D8cpD8"] == 32 and orders["BJ9"] == 64


def test_analyze_runs_one_component_pass(capsys, monkeypatch):
    calls = []
    orig = qgring.components.count_matrix_components

    def counting(*args, **kwargs):
        calls.append(args[0].name)
        return orig(*args, **kwargs)

    monkeypatch.setattr(qgring.components, "count_matrix_components", counting)
    monkeypatch.setattr(qgring.cli, "count_matrix_components", counting)
    code, out, _ = run_cli(capsys, "--json", "analyze", "A4")
    assert code == 0
    assert len(json.loads(out)["pcis"]) == 3
    assert len(calls) == 1
