import argparse
import hashlib
import json
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgring.algebra
import qgring.catalog
import qgring.cli
import qgring.components
import qgring.groups
import qgring.props
import qgring.shoda
import qgring.verify
from qgring.algebra import AlgElem
from qgring.cli import main
from qgring.errors import OrderCapExceeded

# sha256 of `qgring --json analyze <spec>` when the benchmark was added
# (X(C(4),EA(2,5)), whose PCI enumeration the exponent filter cuts most,
# when that filter was added); the output must stay byte-identical
ANALYZE_SHA256 = {
    "A5": "d2164b330791ac4bc64a42a7d24458bd3409473789065ec2cf61123f8ef086e8",
    "BJ9": "8b48188a9243feb90457a66d28d0f5a8fb3bb287dabf987802346d62265769da",
    "C3C3rC8": "3c619435cb494770bfea13e469bdb0524cb7cdda77649589f2bcd059f6266ab5",
    "D(200)": "90c8cd265f7ecdef9ea5b15971184b541e59ecd80c9c7ae9c67f15a68e8e825f",
    "SdCyc(7,27,2)": "3f1b517b5c7d1c4d437196f53aad49420442298faa3a110d7459f05d0855b9a6",
    "X(Q(8),C(25))": "589ed2ef3b5332db6b44381efbbf3146e4a189021042c09c96a0d4bc0d29fe2b",
    "X(Q(8),C(27))": "c5335ac6391fbb19bf69ce5ece64d57e5acf5ed6392603e832bf92baa78569a1",
    "X(C(4),EA(2,5))": "bf65e7c3cd288be76e5da51ca58e3f1f19386dcba3d4989373eac170cef44446",
    # one group for each way out of nd_verdict's witness passes, recorded
    # before they became one loop: the search exhausts its candidates
    # (45 024 tests), the search spends the whole budget, no PCI to search
    # with (spent 0), and the curated BJ3 witness
    "SdCyc(3,8,2)": "3d1d480225a767f7e9d6f9a4f396922bcc088c5892fab3c55dda850fd01b4e9a",
    "SdCyc(5,8,2)": "c31bbe0b2c55022c72cae76205f79fff23c86a8ae797844ae4b017f55a263e57",
    "X(A5,C(2))": "0b2de09ce2353577736192dffe3ba889ab1ae3b9fbe2e74f0b6261cb614741aa",
    "Q8xC8": "365bad78fd7a34c295cf6c4e88d0be49aacc3de2f34e9ba2b6edb7f963f5eb8b",
    # a p-group with ncn false, recorded before the SN/SSN/NCN flags left
    # the ND report
    "D8cpD8": "c5b021a1583a42d922f129b4622ac947152988e3f4254a1fc5ca98bf7d1b232a",
    # the other catalog names, the other witness-search groups and seven
    # direct products, recorded before the generator scans became one
    "A4": "602929c1be4ce85cbccad168ca5da98944b07346cdc0d63d61d6ddac7fad90ee",
    "BJ4": "bab33254db146596bae6bdbbfc5428f0e0b14444e4e73f12266c4b6aa71cef99",
    "BJ5": "df60f148f6835abfe92a28827c0514074da0cf429ee319ee5a3c84e1efaeb75c",
    "BJ8": "f79e60d0ea669169b44548b574ccec5306aca759059e8ed8485af2e12a393483",
    "C11rC5": "df85439cbf2dc36b701337354c58e8d7b1eb666b810d9f5f066ee3a52992a5f4",
    "C13rC9": "ef99f4de2ea340eba39105764a17434539ec05a8b58a82a921661dd5c7fa7c71",
    "C2xD8": "25903c247f66dafada50d1b538ba90cc478a3f2c74d5f7de4384af03b6efe345",
    "C3rC8": "f6651aecd6a7ec1a494f25f3df9406dfe6d34162b6598275090297dac3267e2d",
    "C5rC4": "98754360af1468125cd313bc7e0b6b60612df05501442b73a2b3609eea11e752",
    "C7rC9": "0414d1988031d0b2ba3c065a21ae97daa4d098ef359d97e926e3880b57c773e3",
    "C9rC3": "df9c4236ccb629f71eee04772e53a2eaab625d3338baee1766ba067a31163be6",
    "D10": "55e58a1a182a33e75b4b3599ac23cafad6288504d38d3b27ae92f8e83dbc2695",
    "D12": "ef89d5c815f0f6a0aeb426b970652180f9911088e7083068072d6e55ed44402b",
    "D14": "3effb1b928b034e6871b6360b9e337c8fde6d879465fdc402f6b9966600d1af0",
    "D8": "a567408207384078b1a65f5b63d760076bdecb106aa4d33581e2f5639b0ebe49",
    "D8cpQ8": "6dabba700fc37d4efd2c32f1162a0f57cb94cc62080bd54a08c104b54c50196a",
    "Ex37G1": "181698df49c04194b79402f06fb2a059c78f959c708739ed0b8fe00bb5979f70",
    "Ex38K": "348d2b7ef2ac50e426469314be3512aed7dc5031d557f9d14f511dbd476475c4",
    "Heis27": "19e2ad541fff86ea2bd77f387031fa23f7a38e9636b0481d394aeae97c81ef6a",
    "Q12": "5d4c7bfe47e152a9efeb3548f8f273dd2167c9302a743d727a7745ece77a18e3",
    "Q16": "1b6f2a281fdc28452112770e497c12bd115e723b40530904eee1697b92c3e349",
    "Q8": "5d7e93f87de484e644f2101e2638004de55c3696b8e88449e70fb330e146836b",
    "Q8xC4": "8c23cb758b82b7ea9f708f9d69b8ac8b16f9a091daae254eab1742c954494561",
    "S3": "83be8ddeb794859225cf4de607e1aef7e7fa10756b48a26db2f8ab2ad9c396a1",
    "SdCyc(3,16,2)": "3ec02d98bb0e1bd25bfc2a5bc850fd324ec9b347f8ef14233b6c8e3cbc879bd3",
    "SdCyc(5,16,2)": "c960fcea9a13ba2b9ec40da4022f5f2f64b84297b8ed819c3c019a76b8536a48",
    "SdCyc(13,8,5)": "88b8acb9b87616c1c0a1d2f48adda33edab4421fc78b3f8a68ffaa38ec13deaf",
    "X(SdCyc(3,8,2),C(2))": "65843a54b7888a6abc914dffe13731337d5be6e175b81a023f9c0538bfe72a19",
    "X(C(2),D(8))": "b9780f72c458b7c0758c99bfeb0028f7819839b4a33575b69f70b5044f508ca8",
    "X(D(8),C(2))": "f9063d8cbc06f0bff9b9b3c4c0035012f69279f83d66ebef951d44cdeae6bd52",
    "X(D(8),D(8))": "3f08a3985afd5e4b54a546520d9e636c24d8bce392de0a9611f43e603efac193",
    "X(Q(8),D(8))": "0a1624be207f01e7cf9f911bf262ba96cf2048b923119ba79a96976acc0ece4c",
    "X(D(6),D(8))": "0f341f527a01d982e8388afae92446aa25fd62439495595d389505c3b6519d07",
    "X(C(2),Q(16))": "42366be3011d5fe04cf24cfbc8e52432273d7960b351fd8484ffb7c7494fd264",
    "X(D(8),C(6))": "10023a985b2b46c9c6afd8e67aac1a1fd6b7edf40406124ce3e984666c9eca40",
}

# sha256 of `qgring analyze <spec>` without its wall-clock timing line,
# recorded before the SN/SSN/NCN flags left the ND report
ANALYZE_TEXT_SHA256 = {
    "BJ9": "c7b3e0cc1547003a3fb6945c498d91085a8abe27717b2a8c2e45ab2e63f91dd8",
    "D(200)": "e52929e83159a51e2be95a19e90a7998561e48fbfb66851f4e8f90f89c62a906",
    "D8cpD8": "27be4d8b82f2a71218748d24e00c260d893cac682a14e1246ad91cb5b7303356",
}

# sha256 of the other `qgring --json <command>` outputs, recorded before
# epsilon lost its path for a non-cyclic H/K; each must stay byte-identical
JSON_SHA256 = {
    "verify-theorems": "939d18d20bed9378ca32d475e4e90e7bf45d72943426fc2828af52d7d880f15b",
    "catalog": "50960d91ae4f96c767bd723e2dd32880222c413b495afa167d67e479c94cea5e",
    "sweep BJ1": "fad5f4c51a7cd44faeb88e216e2b6ad22f12e55935c9d7e94c2b7ddc9a713f90",
    "sweep BJ3": "b828f45e72a46fffc2d75eeb54cda68f73e85fd86561877d42a42d5549917587",
    "sweep repunit": "8cc584d714f46a42ff43fa1b0ee2df5ed049081b90243d5246828dd925b98f56",
    "sweep nonfaithful": "75ab2f45ced3a785cd83de40a3b9ed379ad9d710356839467d67f00fc82469b1",
}


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


def test_analyze_prints_an_interval_count(capsys):
    # two components stay unresolved; the witness search still decides
    code, out, _ = run_cli(capsys, "--json", "analyze", "X(Q(8),SdCyc(3,8,2))")
    assert code == 0
    data = json.loads(out)
    assert '"matrix_count": [\n    11,\n    13\n  ]' in out
    assert data["matrix_count"] == data["nd"]["matrix_count"] == [11, 13]
    assert data["nd"]["verdict"] == "NotND"
    assert data["nd"]["reason"]["kind"] == "WitnessFound"
    assert data["nd"]["reason"]["spent"] == 1


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


def test_cap_above_the_default_holds_through_the_pipeline(capsys):
    code, out, err = run_cli(capsys, "--json", "--cap", "300", "analyze", "C(251)")
    assert code == 0 and not err
    data = json.loads(out)
    assert data["group"]["order"] == 251 and len(data["pcis"]) == 2
    code, out, err = run_cli(capsys, "--json", "sweep", "BJ1", "--p", "2",
                             "--m", "4", "--n", "4", "--cap", "300")
    assert code == 0 and not err
    (row,) = json.loads(out)["rows"]
    assert row["order"] == 256 and row["agreement"] is True


@pytest.mark.parametrize("spec, family, params, reason", [
    ("X(Q(8),C(32))", "BJ3", {"n": 5}, "WitnessFound"),
    ("SdCyc(128,2,65)", "BJ1", {"p": 2, "m": 7, "n": 1}, "OneMatrixComponent"),
])
def test_a_raised_cap_holds_through_identification(capsys, spec, family,
                                                    params, reason):
    # the classification's and the curated pass's reference groups are
    # built at the order of the group they are compared with
    code, out, err = run_cli(capsys, "--json", "--cap", "256", "analyze", spec)
    assert code == 0 and not err
    data = json.loads(out)
    pred = data["prediction"]
    assert (pred["family"], pred["params"], pred["agreement"]) == (family, params, True)
    assert data["nd"]["reason"]["kind"] == reason
    assert data["nd"]["reason"]["spent"] == 0


def test_analyze_exits_3_when_the_lattice_is_over_its_cap(capsys, monkeypatch):
    # D(8) is SN and not Dedekind: its SSN and NCN flags read the lattice,
    # whose 10 subgroups are over a cap of 9
    monkeypatch.setattr(qgring.catalog, "_BUILT", {})  # a group with cold caches
    monkeypatch.setattr(qgring.groups, "MAX_SUBGROUPS", 9)
    code, out, err = run_cli(capsys, "analyze", "D(8)")
    assert code == 3 and not out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "subgroups" in err


@pytest.mark.parametrize("spec", ["D(200)", "X(Q(8),C(25))", "X(Q(8),C(27))",
                                  "X(EA(2,6),C(3))", "EA(2,7)", "EA(3,5)",
                                  "X(Q(8),EA(2,4))", "D(16)", "X(D(8),EA(2,4))",
                                  "X(EA(2,3),X(C(2),D(8)))"])
def test_analyze_builds_no_lattice(capsys, monkeypatch, spec):
    # SN is decided with no lattice, SSN and NCN too when G is not SN or
    # is Dedekind, NCN is asked of p-groups only, and a pair's label
    # follows the lattice's rule in closed form for a nilpotent or
    # metacyclic G. So the Dedekind 2- and 3-groups and the 2-groups that
    # are not SN build none, and EA(2,7), whose lattice is over
    # MAX_SUBGROUPS, is decided
    built = []
    orig = qgring.groups.subgroups

    def recording(G):
        built.append(G.name)
        return orig(G)

    monkeypatch.setattr(qgring.catalog, "_BUILT", {})  # a group with cold caches
    for module in (qgring.groups, qgring.algebra, qgring.shoda,
                   qgring.components, qgring.props, qgring.cli):
        if getattr(module, "subgroups", None) is orig:
            monkeypatch.setattr(module, "subgroups", recording)
    code, out, _ = run_cli(capsys, "--json", "analyze", spec)
    assert code == 0 and json.loads(out)["pcis"]
    assert built == []


# the values the commands write: exact dicts with str or int keys, lists,
# str, int, bool and None
_JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.text()
_JSON_TREES = st.recursive(_JSON_LEAVES, lambda inner: (
    st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=4)
    | st.dictionaries(st.text(max_size=2) | st.integers(-3, 3), inner, max_size=3)),
    max_leaves=20)


@settings(max_examples=100, deadline=None)
@given(_JSON_TREES)
def test_json_writer_is_json_dumps(tree):
    # every --json output goes through one writer, which must give the bytes
    # of json.dumps(indent=2, sort_keys=True), errors included
    try:
        want = json.dumps(tree, indent=2, sort_keys=True)
    except TypeError:  # keys of types that do not sort together
        with pytest.raises(TypeError):
            qgring.cli._json_text(tree)
        return
    assert qgring.cli._json_text(tree) == want


class _Text(str):
    pass


@pytest.mark.parametrize("value", [
    1.5, (1, 2), _Text("a"), {1.5: 0}, {True: 0}, {None: 0}, [{"a": [0.0]}]],
    ids=["float", "tuple", "str-subclass", "float-key", "bool-key", "none-key",
         "nested-float"])
def test_json_writer_refuses_other_values(value):
    # no command writes any other value, so the writer takes none
    with pytest.raises(TypeError):
        qgring.cli._json_text(value)


def _usage_error(capsys, *argv):
    """The stderr of a command line refused with exit 2 and one error line."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert sum("error:" in line for line in err.splitlines()) == 1
    return err


@pytest.mark.parametrize("source", ["cwd", "env"])
def test_a_config_file_changes_nothing(capsys, monkeypatch, tmp_path, source):
    path = tmp_path / ("qgring.config.json" if source == "cwd" else "settings.json")
    path.write_text(json.dumps({"witness_budget": 7, "order_cap": 20}))
    if source == "cwd":
        monkeypatch.chdir(tmp_path)
    else:
        monkeypatch.setenv("QGRING_CONFIG", str(path))
    code, out, _ = run_cli(capsys, "--json", "analyze", "SdCyc(3,8,2)")
    assert code == 0
    assert json.loads(out)["nd"]["reason"]["budget"] == 10 ** 6
    code, _, err = run_cli(capsys, "analyze", "D(24)")
    assert code == 0 and not err


def test_there_is_no_config_flag(capsys):
    _usage_error(capsys, "--config", "x", "analyze", "A4")


def test_verify_theorems_refuses_cap(capsys):
    assert "--cap" in _usage_error(capsys, "verify-theorems", "--cap", "100")


def test_verify_theorems_refuses_seed(capsys):
    # every check is exact: no row samples, so there is nothing to seed
    assert "--seed" in _usage_error(capsys, "verify-theorems", "--seed", "1")
    assert "--seed" in _usage_error(capsys, "--seed", "1", "verify-theorems")


@pytest.mark.parametrize("argv", [
    ("analyze", "A4", "--only", "witnesses"),
    ("--k0", "1", "analyze", "A4"),
    ("sweep", "BJ3", "--budget", "1"),
    ("--budget", "1", "sweep", "BJ3"),
    ("verify-theorems", "--cap", "100"),
    ("--cap", "100", "verify-theorems"),
    ("catalog", "--cap", "5"),
    ("catalog", "--budget", "3"),
    ("--seed", "9", "catalog"),
    ("verify-theorems", "--budget", "5"),
    ("--budget", "5", "verify-theorems"),
    ("sweep", "BJ3", "--seed", "1"),
    ("--seed", "1", "sweep", "BJ3"),
])
def test_a_flag_the_command_does_not_read_is_refused(capsys, argv):
    _usage_error(capsys, *argv)


@pytest.mark.parametrize("command", sorted(qgring.cli.COMMAND_FLAGS))
def test_help_lists_only_the_flags_a_command_takes(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    listed = {name for name in qgring.cli.GLOBAL_FLAGS if f"--{name}" in out}
    assert listed == set(qgring.cli.COMMAND_FLAGS[command])
    if command == "catalog":
        assert listed == {"json"}
    if command == "sweep":
        assert "--budget" not in out


@pytest.mark.parametrize("argv", [
    ("analyze", "A4", "--json", "--cap", "20", "--budget", "5", "--seed", "1"),
    ("--json", "--cap", "20", "--budget", "5", "--seed", "1", "analyze", "A4"),
    ("sweep", "BJ1", "--p", "2", "--m", "2", "--n", "1", "--json", "--cap",
     "20"),
    ("--json", "--cap", "20", "sweep", "BJ1", "--p", "2", "--m", "2", "--n",
     "1"),
    ("verify-theorems", "--only", "amitsur", "--json"),
    ("--json", "verify-theorems", "--only", "amitsur"),
    ("catalog", "--json"),
])
def test_each_command_takes_its_flags_in_either_position(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and not err
    assert json.loads(out)["schema"] == 1


@pytest.mark.parametrize("argv", [
    ("analyze", "--cap", "0", "A4"),
    ("analyze", "--budget", "0", "A4"),
    ("analyze", "--budget", "-3", "A4"),
    ("--cap", "x", "analyze", "A4"),
    ("sweep", "BJ1", "--p", "abc"),
    ("sweep", "BJ1", "--n", "1:2:3"),
    ("sweep", "BJ1", "--p", "5:3"),
    ("sweep", "nonfaithful", "--k0", "one"),
])
def test_malformed_numbers_are_refused(capsys, argv):
    _usage_error(capsys, *argv)


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
    monkeypatch.setattr(qgring.props, "count_matrix_components", counting)
    code, out, _ = run_cli(capsys, "--json", "analyze", "A4")
    assert code == 0
    assert len(json.loads(out)["pcis"]) == 3
    assert len(calls) == 1


def test_analyze_builds_no_reference_that_cannot_match(capsys, monkeypatch):
    # 200 = 8 * 25, but D(200) is not nilpotent and Q8 x C25 is: the curated
    # reference is neither built nor compared
    built, isos = [], []
    orig_init = qgring.groups.FiniteGroup.__init__
    orig_iso = qgring.props.find_isomorphism

    def counting_init(self, *args, **kwargs):
        built.append(args)
        orig_init(self, *args, **kwargs)

    def counting_iso(*args):
        isos.append(args)
        return orig_iso(*args)

    monkeypatch.setattr(qgring.catalog, "_BUILT", {})  # a group with cold caches
    monkeypatch.setattr(qgring.groups.FiniteGroup, "__init__", counting_init)
    monkeypatch.setattr(qgring.props, "find_isomorphism", counting_iso)
    code, out, _ = run_cli(capsys, "--json", "analyze", "D(200)")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_SHA256["D(200)"]
    assert len(built) == 1 and isos == []


@pytest.mark.parametrize("spec", sorted(ANALYZE_SHA256))
def test_analyze_json_is_byte_identical(capsys, spec):
    code, out, _ = run_cli(capsys, "--json", "analyze", spec)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_SHA256[spec]


@pytest.mark.parametrize("command", sorted(JSON_SHA256))
def test_json_output_is_byte_identical(capsys, command):
    code, out, _ = run_cli(capsys, "--json", *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_SHA256[command]


@pytest.mark.parametrize("spec", sorted(ANALYZE_TEXT_SHA256))
def test_analyze_text_is_byte_identical(capsys, spec):
    code, out, _ = run_cli(capsys, "analyze", spec)
    assert code == 0
    lines = out.splitlines(keepends=True)
    assert lines[-1].startswith("  timing: ")
    assert (hashlib.sha256("".join(lines[:-1]).encode()).hexdigest()
            == ANALYZE_TEXT_SHA256[spec])


def test_analyze_decides_ncn_once(capsys, monkeypatch):
    # deciding NCN tests subgroups for cyclicity, each at most once, up to
    # the first non-cyclic one that is not normal; classify_ssn and the
    # properties both ask for it, and the second reads the first's answer
    monkeypatch.setattr(qgring.catalog, "_BUILT", {})  # a group with cold caches
    G = qgring.catalog.build_named("D8cpD8")
    calls = []
    orig = qgring.groups.Subgroup.is_cyclic

    def counting(self):
        calls.append(self.mask)
        return orig(self)

    monkeypatch.setattr(qgring.groups.Subgroup, "is_cyclic", counting)
    code, out, _ = run_cli(capsys, "--json", "analyze", "D8cpD8")
    assert code == 0
    assert json.loads(out)["properties"]["ncn"] is False
    assert calls and len(calls) == len(set(calls))
    assert set(calls) <= {S.mask for S in qgring.groups.subgroups(G)}


def test_analyze_evaluates_each_shoda_pair_once(capsys, monkeypatch):
    strong, idem, normalizers, centralizers = [], [], [], []
    orig_strong = qgring.shoda.is_strong_shoda_pair
    orig_idem = qgring.shoda.e_idem
    orig_normalizer = qgring.shoda.normalizer
    orig_centralizer = AlgElem.centralizer_subgroup

    def counting_strong(G, H, K):
        strong.append((H.mask, K.mask))
        return orig_strong(G, H, K)

    def counting_idem(G, H, K, *args, **kwargs):
        idem.append((H.mask, K.mask))
        return orig_idem(G, H, K, *args, **kwargs)

    def counting_normalizer(G, K):
        normalizers.append(K.mask)  # made once per full strong-pair check
        return orig_normalizer(G, K)

    def counting_centralizer(self):
        centralizers.append(self.key())
        return orig_centralizer(self)

    monkeypatch.setattr(qgring.catalog, "_BUILT", {})  # a group with cold caches
    monkeypatch.setattr(qgring.shoda, "is_strong_shoda_pair", counting_strong)
    monkeypatch.setattr(qgring.shoda, "e_idem", counting_idem)
    monkeypatch.setattr(qgring.shoda, "normalizer", counting_normalizer)
    monkeypatch.setattr(AlgElem, "centralizer_subgroup", counting_centralizer)
    code, out, _ = run_cli(capsys, "--json", "analyze", "D(200)")
    assert code == 0
    assert len(json.loads(out)["pcis"]) == 11
    # metabelian_pcis asks once per pair; describe_component reads the
    # pair's record and asks nothing again
    assert len(strong) == len(set(strong)) == 11
    assert len(normalizers) == len(set(strong))
    assert set(idem) <= set(strong)
    # every pair is strong: the strong check proves Cen_G(epsilon) = N_G(K),
    # and epsilon of a cyclic H/K is read off the coset exponents
    assert centralizers == []


def test_analyze_builds_the_a5_pair_once(capsys, monkeypatch):
    calls = Counter()

    def counting(module, name):
        orig = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return orig(*args)
        monkeypatch.setattr(module, name, wrapper)

    monkeypatch.setattr(qgring.catalog, "_BUILT", {})  # a group with cold caches
    counting(qgring.shoda, "_cyclic_epsilon")
    counting(AlgElem, "centralizer_subgroup")
    for module in (qgring.components, qgring.props):
        counting(module, "find_isomorphism")
    code, _out, _ = run_cli(capsys, "--json", "analyze", "A5")
    assert code == 0
    # (A4, V4) is not strong: its epsilon is built once, and its e with one
    # centralizer scan, for the matrix count and the curated witness
    # together (3 epsilons when e_idem ran the strong test on the pair and
    # built epsilon again); the matrix count and the curated pass each find
    # A5 by isomorphism, and classify_ssn by its order
    assert calls == {"_cyclic_epsilon": 1, "centralizer_subgroup": 1,
                     "find_isomorphism": 2}


def test_analyze_decides_normality_once_per_subgroup(capsys, monkeypatch):
    decided = []
    orig = qgring.groups.normalizes

    def counting(G, by, S):
        by = tuple(by)
        if by == G.generators():  # a normality test in G
            decided.append(S.mask)
        return orig(G, by, S)

    monkeypatch.setattr(qgring.catalog, "_BUILT", {})  # a group with cold caches
    monkeypatch.setattr(qgring.groups, "normalizes", counting)
    code, _out, _ = run_cli(capsys, "--json", "analyze", "D(200)")
    assert code == 0
    # one per subgroup at most: D(200) has 226, and made 237 tests when
    # normalizer tested each Shoda pair's K again
    assert len(decided) == len(set(decided)) <= 226


def test_analyze_builds_each_transversal_once(capsys, monkeypatch):
    built = []
    init = qgring.groups.FiniteGroup.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(qgring.catalog, "_BUILT", {})  # a group with cold caches
    monkeypatch.setattr(qgring.groups.FiniteGroup, "__init__", recording)
    code, _out, _ = run_cli(capsys, "--json", "analyze", "D(200)")
    assert code == 0
    # the 56 cosets() calls built 56 transversals before they were memoized;
    # describe_component reads the right cosets of H in N_G(K) that the
    # strong check built, where it built the left ones (16) before; the
    # idempotency of the four e(G, G, K) reads the cosets x^j K that their
    # records number (14 when it built the left cosets of each K)
    assert sum(isinstance(key, tuple) and key[0] == "cosets"
               for G in built for key in G._cache) == 10


def test_analyze_reads_each_strong_pair_from_its_record(capsys, monkeypatch):
    callers = []
    orig = qgring.groups.cosets
    built = []
    init = qgring.groups.FiniteGroup.__init__

    def counting(S, within=None, left=False):
        callers.append(sys._getframe(1).f_code.co_name)
        return orig(S, within, left)

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(qgring.catalog, "_BUILT", {})  # a group with cold caches
    monkeypatch.setattr(qgring.groups.FiniteGroup, "__init__", recording)
    for module in (qgring.groups, qgring.shoda, qgring.algebra, qgring.props,
                   qgring.components):
        if getattr(module, "cosets", None) is orig:
            monkeypatch.setattr(module, "cosets", counting)
    code, _out, _ = run_cli(capsys, "--json", "analyze", "D(200)")
    assert code == 0
    # 56 calls when e_idem, describe_component and _core asked again for
    # the transversals that the strong check had built, 34 while the
    # idempotency of the four e(G, G, K) asked for the left cosets of K,
    # and 30 while the witness search walked the pair stage of a normal
    # cyclic subgroup, whose family is empty
    assert len(callers) == 29
    assert callers.count("_idempotent_at_classes") == 11 - 4
    assert not {"e_idem", "describe_component", "_core"} & set(callers)
    (G,) = [G for G in built if G.order == 200]
    keys = [key for key in G._cache if isinstance(key, tuple)]
    strong = [key for key in keys if key[0] == "strong"]
    assert len(strong) == len(set(strong)) == 11
    assert all(G._cache[key] is not None for key in strong)
    assert not {key[0] for key in keys} & {"epsilon", "exponents", "strong_shoda"}


@pytest.mark.parametrize("spec, count", [("X(X(Q(8),C(3)),C(3))", 4),
                                         ("X(X(Q(8),C(5)),C(5))", 6)])
def test_hamiltonian_count_with_a_noncyclic_odd_part(capsys, spec, count):
    # Q8 x A with A = C_p x C_p has (p^2 - 1) / (p - 1) = p + 1 subgroups
    # of order p; the count is compared, not only whether it is one
    code, out, _ = run_cli(capsys, "--json", "analyze", spec)
    assert code == 0
    data = json.loads(out)
    pred = data["prediction"]
    assert data["matrix_count"] == count
    assert pred["detail"]["matrix_component_count"] == count
    assert pred["agreement"] is True


def test_analyze_reads_each_normalizer_from_the_centralizer_memo(capsys,
                                                                monkeypatch):
    callers = []
    orig = qgring.groups.normalizer

    def counting(G, H):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return orig(G, H)

    monkeypatch.setattr(qgring.catalog, "_BUILT", {})  # a group with cold caches
    for module in (qgring.groups, qgring.shoda, qgring.props,
                   qgring.components, qgring.verify):
        if getattr(module, "normalizer", None) is orig:
            monkeypatch.setattr(module, "normalizer", counting)
    code, out, _ = run_cli(capsys, "--json", "analyze", "D(200)")
    assert code == 0
    assert len(json.loads(out)["pcis"]) == 11
    # describe_component takes N_G(K) = Cen_G(epsilon(H, K)) from the memo
    # filled by the strong-Shoda check, which makes one call per pair
    assert "qgring.shoda" in callers
    assert "qgring.components" not in callers


def test_analyze_builds_no_section_group(capsys, monkeypatch):
    calls = []
    orig_quotient = qgring.groups.quotient
    orig_induced = qgring.groups.Subgroup.induced

    def counting_quotient(G, N):
        calls.append("quotient")
        return orig_quotient(G, N)

    def counting_induced(self):
        calls.append("induced")
        return orig_induced(self)

    monkeypatch.setattr(qgring.catalog, "_BUILT", {})  # a group with cold caches
    for module in (qgring.groups, qgring.verify):  # the rest import it locally
        monkeypatch.setattr(module, "quotient", counting_quotient)
    monkeypatch.setattr(qgring.groups.Subgroup, "induced", counting_induced)
    code, out, _ = run_cli(capsys, "--json", "analyze", "D(200)")
    assert code == 0
    assert len(json.loads(out)["pcis"]) == 11
    # H/K, N_G(K)/K and N_G(K)/H are read off cosets inside G
    assert calls == []


def test_analyze_checks_each_idempotent_once(capsys, monkeypatch):
    central, idempotent = [], []
    orig_central = qgring.algebra._constant_on_classes
    orig_idempotent = qgring.algebra._idempotent_at_classes

    def counting_central(e):
        central.append(e.key())
        return orig_central(e)

    def counting_idempotent(e):
        idempotent.append(e.key())
        return orig_idempotent(e)

    monkeypatch.setattr(qgring.catalog, "_BUILT", {})  # a group with cold caches
    monkeypatch.setattr(qgring.algebra, "_constant_on_classes", counting_central)
    monkeypatch.setattr(qgring.algebra, "_idempotent_at_classes",
                        counting_idempotent)
    code, out, _ = run_cli(capsys, "--json", "analyze", "D(200)")
    assert code == 0
    assert len(json.loads(out)["pcis"]) == 11
    assert len(central) == len(set(central)) >= 11
    assert len(idempotent) == len(set(idempotent)) == 11


def _groups_of_the_input_order(capsys, monkeypatch, *argv):
    """How many groups of the analyzed group's order `analyze` constructs."""
    monkeypatch.setattr(qgring.catalog, "_BUILT", {})
    orders = []
    orig = qgring.groups.FiniteGroup.__init__

    def counting(self, table, *args, **kwargs):
        orders.append(len(table))
        orig(self, table, *args, **kwargs)

    monkeypatch.setattr(qgring.groups.FiniteGroup, "__init__", counting)
    code, out, _ = run_cli(capsys, "--json", "analyze", *argv)
    assert code == 0
    return orders.count(json.loads(out)["group"]["order"])


@pytest.mark.parametrize("spec", ["A5", "BJ9", "X(Q(8),C(25))", "X(Q(8),C(27))"])
def test_analyze_builds_each_group_once(capsys, monkeypatch, spec):
    # the input and the reference the classification or the curated
    # witness looks up are one catalog entry; a reference that is never
    # compared is never built
    assert _groups_of_the_input_order(capsys, monkeypatch, spec) == 1


@pytest.mark.parametrize("spec", ["A5", "BJ9", "X(Q(8),C(25))"])
def test_analyze_builds_each_group_once_under_any_cap(capsys, monkeypatch,
                                                      spec):
    # the references are looked up under caps of their own, the input at 1000
    assert _groups_of_the_input_order(capsys, monkeypatch, spec,
                                      "--cap", "1000") == 1


def test_an_alias_and_its_spec_are_one_group(capsys, monkeypatch):
    # Q8xC8 is the BJ3 reference that the classification and the curated
    # witness look up by its spec; the other order-64 group is BJ9
    assert _groups_of_the_input_order(capsys, monkeypatch, "Q8xC8") == 2
    assert (qgring.catalog.build_spec("X(Q(8),C(8))")
            is qgring.catalog.build_named("Q8xC8"))


@pytest.mark.parametrize("first, spec", [("X(Q(8),C(8))", "Q8xC8"),
                                         ("Q8xC8", "X(Q(8),C(8))")])
def test_the_printed_spec_is_the_one_given(capsys, monkeypatch, first, spec):
    monkeypatch.setattr(qgring.catalog, "_BUILT", {})
    cold = run_cli(capsys, "--json", "analyze", spec)
    monkeypatch.setattr(qgring.catalog, "_BUILT", {})
    qgring.catalog.build_spec(first)
    assert run_cli(capsys, "--json", "analyze", spec) == cold
    assert json.loads(cold[1])["group"]["spec"] == spec
    assert json.loads(cold[1])["nd"]["group"] == spec


def test_a_group_built_under_a_larger_cap_is_not_returned_under_a_smaller(
        monkeypatch):
    monkeypatch.setattr(qgring.catalog, "_BUILT", {})
    assert qgring.catalog.build_spec("C(251)", cap=300).order == 251
    with pytest.raises(OrderCapExceeded):
        qgring.catalog.build_spec("C(251)")


def test_a_subgroup_entry_is_capped_by_its_own_order(monkeypatch):
    # Ex38K is an order-36 subgroup of an order-72 group
    monkeypatch.setattr(qgring.catalog, "_BUILT", {})
    assert qgring.catalog.build_named("Ex38K", cap=50).order == 36
    with pytest.raises(OrderCapExceeded):
        qgring.catalog.build_named("Ex38K", cap=30)


@pytest.mark.parametrize("spec", ["X(Q(8),C(25))", "BJ9", "A5"])
def test_analyze_verifies_its_witness_once(capsys, monkeypatch, spec):
    # on the analyzed group, not again on the witness's reference group
    groups = []
    orig = qgring.props.verify_witness

    def counting(w):
        groups.append(w.group)
        return orig(w)

    monkeypatch.setattr(qgring.props, "verify_witness", counting)
    code, out, _ = run_cli(capsys, "--json", "analyze", spec)
    assert code == 0 and json.loads(out)["nd"]["verdict"] == "NotND"
    assert groups == [qgring.catalog.build_spec(spec)]


@pytest.mark.parametrize("argv", [("sweep", "BJ1", "--m", "1"),
                                  ("sweep", "BJ3", "--n", "0:6"),
                                  ("sweep", "nonfaithful", "--k0", "0"),
                                  ("sweep", "repunit", "--n", "1")])
def test_a_parameter_the_family_rejects_is_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1


def test_the_parser_is_built_once(capsys, monkeypatch):
    # the cached parser prints what a new one prints, after any command line
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    qgring.cli._parser.cache_clear()
    argvs = [("-h",), ("sweep", "-h"), ("catalog", "--cap", "5"),
             ("sweep", "BJ1", "--p", "5:3"), ("analyze",), ("nope",)]
    outputs = []
    for _ in range(2):
        for argv in argvs:
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            outputs.append((exc.value.code, *capsys.readouterr()))
        run_cli(capsys, "catalog", "--json")
    assert outputs[:len(argvs)] == outputs[len(argvs):]
    assert len(built) == 10  # the top level and 4 commands, each with its flags
