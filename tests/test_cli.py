import hashlib
import json
import sys

import pytest

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

# sha256 of `qgring --json analyze <spec>` when the benchmark was added;
# the output must stay byte-identical
ANALYZE_SHA256 = {
    "A5": "d2164b330791ac4bc64a42a7d24458bd3409473789065ec2cf61123f8ef086e8",
    "BJ9": "8b48188a9243feb90457a66d28d0f5a8fb3bb287dabf987802346d62265769da",
    "C3C3rC8": "3c619435cb494770bfea13e469bdb0524cb7cdda77649589f2bcd059f6266ab5",
    "D(200)": "90c8cd265f7ecdef9ea5b15971184b541e59ecd80c9c7ae9c67f15a68e8e825f",
    "SdCyc(7,27,2)": "3f1b517b5c7d1c4d437196f53aad49420442298faa3a110d7459f05d0855b9a6",
    "X(Q(8),C(25))": "589ed2ef3b5332db6b44381efbbf3146e4a189021042c09c96a0d4bc0d29fe2b",
    "X(Q(8),C(27))": "c5335ac6391fbb19bf69ce5ece64d57e5acf5ed6392603e832bf92baa78569a1",
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


def test_analyze_exits_3_when_the_lattice_is_over_its_cap(capsys):
    code, out, err = run_cli(capsys, "analyze", "EA(2,7)")
    assert code == 3 and not out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "subgroups" in err


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
     "20", "--seed", "1"),
    ("--json", "--cap", "20", "--seed", "1", "sweep", "BJ1", "--p", "2",
     "--m", "2", "--n", "1"),
    ("verify-theorems", "--only", "amitsur", "--json", "--seed", "1"),
    ("--json", "--seed", "1", "verify-theorems", "--only", "amitsur"),
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


def test_analyze_evaluates_each_shoda_pair_once(capsys, monkeypatch):
    strong, idem, normalizers, centralizers, minimal = [], [], [], [], []
    orig_strong = qgring.shoda.is_strong_shoda_pair
    orig_idem = qgring.shoda.e_idem
    orig_normalizer = qgring.shoda.normalizer
    orig_centralizer = AlgElem.centralizer_subgroup
    orig_minimal = qgring.groups.minimal_normal_subgroups_of_quotient

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

    def counting_minimal(H, K):
        minimal.append((H, K))
        return orig_minimal(H, K)

    monkeypatch.setattr(qgring.catalog, "_BUILT", {})  # a group with cold caches
    monkeypatch.setattr(qgring.shoda, "is_strong_shoda_pair", counting_strong)
    monkeypatch.setattr(qgring.components, "is_strong_shoda_pair", counting_strong)
    monkeypatch.setattr(qgring.shoda, "e_idem", counting_idem)
    monkeypatch.setattr(qgring.shoda, "normalizer", counting_normalizer)
    monkeypatch.setattr(AlgElem, "centralizer_subgroup", counting_centralizer)
    for module in (qgring.groups, qgring.shoda):
        monkeypatch.setattr(module, "minimal_normal_subgroups_of_quotient",
                            counting_minimal)
    code, out, _ = run_cli(capsys, "--json", "analyze", "D(200)")
    assert code == 0
    assert len(json.loads(out)["pcis"]) == 11
    # describe_component asks again about every pair metabelian_pcis kept
    assert len(strong) == 2 * len(set(strong)) == 22
    assert len(normalizers) == len(set(strong))
    assert set(idem) <= set(strong)
    # every pair is strong: the strong check proves Cen_G(epsilon) = N_G(K),
    # and epsilon of a cyclic H/K is read off the coset exponents
    assert centralizers == []
    assert minimal == []


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
    # the 56 cosets() calls built 56 transversals before they were memoized
    assert sum(isinstance(key, tuple) and key[0] == "cosets"
               for G in built for key in G._cache) == 16


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
    # the references are looked up at the default cap, the input at 1000
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
