import errno
import functools
import importlib
import io
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import spcohom
from spcohom import ce, cli, correspondence, ideals, liealg, poincare, roots, weyl
from spcohom.cli import main
from spcohom.errors import RankCapError
from spcohom.report import VerificationReport


_SRC = os.path.dirname(os.path.dirname(os.path.abspath(spcohom.__file__)))


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_text() if out.exists() else None


def test_verify_rank2_passes(tmp_path):
    code, text = run_cli(["verify", "--rank", "2"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert set(doc) == {"rank", "command", "checks", "data"}
    assert doc["rank"] == 2 and doc["command"] == "verify"
    assert doc["checks"] and all(c["pass"] for c in doc["checks"])
    assert all(set(c) == {"id", "anchor", "pass", "detail"} for c in doc["checks"])


def test_verify_is_deterministic(tmp_path):
    _, a = run_cli(["verify", "--rank", "2", "--seed", "42"], tmp_path, "a.json")
    _, b = run_cli(["verify", "--rank", "2", "--seed", "42"], tmp_path, "b.json")
    assert a == b


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_verify_does_not_read_the_seed(tmp_path, n):
    # both ideal oracles are certificates, so nothing is sampled
    _, a = run_cli(["verify", "--rank", str(n), "--seed", "0"], tmp_path, "a.json")
    _, b = run_cli(["verify", "--rank", str(n), "--seed", "7"], tmp_path, "b.json")
    assert a == b
    checks = {c["id"]: c for c in json.loads(a)["checks"]}
    for check_id in ("increasing-vs-root-addition", "lie-vs-combinatorial"):
        assert checks[check_id]["pass"] and checks[check_id]["detail"]["mode"] == "certificate"


def test_broken_order_certificate_fails_verify(monkeypatch, tmp_path):
    # drop the only pair that takes 2e_5 up to e_4 + e_5
    n = 5
    idx = roots.root_index(n)
    rows = list(roots._addable(n))
    row = idx[roots.long(n)]
    rows[row] = tuple(p for p in rows[row] if p[1] != idx[roots.sum_root(n - 1, n)])
    monkeypatch.setattr(ideals, "_addable", lambda rank: tuple(rows))
    code, text = run_cli(["verify", "--rank", str(n)], tmp_path)
    assert code == 1
    failed = {c["id"]: c["detail"] for c in json.loads(text)["checks"] if not c["pass"]}
    # the Lie certificate reads the same table, and the structure table still
    # holds the pair in that row
    assert failed == {
        "increasing-vs-root-addition": {
            "mode": "certificate",
            "subsets_checked": 32,
            "exclusion_violations": 0,
            "order_mismatches": 1,
            "ideals_rejected": 0,
        },
        "lie-vs-combinatorial": {
            "mode": "certificate",
            "subsets_covered": 1 << n * n,
            "roots_mismatched": 1,
        },
    }


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("fault", ["drop", "retarget"])
def test_broken_structure_table_fails_the_lie_certificate(monkeypatch, n, fault):
    real = liealg.structure_table(n)
    entries = dict(real.entries)
    pair = min(entries)
    g, c = entries.pop(pair)
    if fault == "retarget":
        entries[pair] = ((g + 1) % (n * n), c)
    monkeypatch.setattr(liealg, "structure_table", lambda rank: liealg.StructureTable(n, entries))
    report = VerificationReport(rank=n)
    cli._lie_agreement_record(n, report)
    (record,) = report.records
    assert record.check_id == "lie-vs-combinatorial" and not record.passed
    assert record.detail == {
        "mode": "certificate",
        "subsets_covered": 1 << n * n,
        "roots_mismatched": 1,
    }


@pytest.mark.parametrize("n", [7, 8])
def test_lie_certificate_passes_above_the_cohomology_cap(n):
    report = VerificationReport(rank=n)
    cli._lie_agreement_record(n, report)
    (record,) = report.records
    assert record.check_id == "lie-vs-combinatorial"
    assert record.passed and not record.skipped
    assert record.detail == {
        "mode": "certificate",
        "subsets_covered": 1 << n * n,
        "roots_mismatched": 0,
    }


@pytest.mark.parametrize(
    "fault, message",
    [
        # e_1 - e_2 gains the entry (2, 0), so its bracket with e_1 - e_3,
        # the first pair, is E_(2,2) - E_(0,0) although 2e_1 - e_2 - e_3 is
        # not a root
        ("extra-entry", "is nonzero but the root sum leaves the positive roots"),
        # e_1 - e_2's second entry flips sign, so its bracket with e_2 - e_3
        # is E_(0,2) + E_(n+2,n), not a multiple of the root vector of e_1 - e_3
        ("flipped-sign", "bracket not proportional to the expected root vector"),
    ],
)
def test_a_wrong_root_vector_exits_3(monkeypatch, capsys, fault, message):
    n = 3
    real = liealg.root_vector

    def wrong(rank, alpha):
        x = real(rank, alpha)
        if alpha != roots.diff(1, 2):
            return x
        if fault == "extra-entry":
            return x + liealg.IntMatrix.from_entries(2 * rank, {(2, 0): 1})
        return liealg.IntMatrix.from_entries(2 * rank, {p: abs(v) for p, v in x.entries})

    monkeypatch.setattr(liealg, "root_vector", wrong)
    # an empty cache, so that the table is built from the wrong vector
    monkeypatch.setattr(
        liealg, "structure_table", functools.lru_cache(liealg.structure_table.__wrapped__)
    )
    assert main(["verify", "--rank", str(n)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal consistency error (a bug): ")
    assert message in captured.err and "Traceback" not in captured.err


def test_broken_dimension_histogram_fails_verify(monkeypatch, tmp_path):
    n = 3
    real = ideals.dimension_histogram

    def broken(rank):
        coeffs = list(real(rank).coeffs)
        coeffs[0] += 1
        return poincare.IntPolynomial.from_coeffs(coeffs)

    monkeypatch.setattr(ideals, "dimension_histogram", broken)
    code, text = run_cli(["verify", "--rank", str(n)], tmp_path)
    assert code == 1
    failed = {c["id"]: c["detail"] for c in json.loads(text)["checks"] if not c["pass"]}
    assert failed == {
        "poincare.ideal-dimension-histogram": {
            "enumerated": [2, 1, 1, 2, 1, 1, 1],
            "formula": [1, 1, 1, 2, 1, 1, 1],
        }
    }


def _drop_last_ideal(monkeypatch):
    # the staircase walk that ideal-count counts skips its last ideal
    real = ideals._staircases
    monkeypatch.setattr(ideals, "_staircases", lambda n: list(real(n))[:-1])


def _repeat_first_ideal(monkeypatch):
    # the walk yields its first ideal again in place of its last
    real = ideals._staircases

    def repeated(n):
        items = list(real(n))
        return items[:-1] + items[:1]

    monkeypatch.setattr(ideals, "_staircases", repeated)


def _shift_one_scan_length(monkeypatch):
    # the scan's DP count moves one element up one length
    real = correspondence._length_histogram

    def shifted(n):
        counts = real(n)
        low = next(d for d, count in enumerate(counts) if count)
        counts[low], counts[low + 1] = counts[low] - 1, counts[low + 1] + 1
        return counts

    monkeypatch.setattr(correspondence, "_length_histogram", shifted)


def _shift_one_inversion_count(monkeypatch):
    # the S_n DP's count moves one permutation up one inversion
    real = poincare.sym_inversion_histogram

    def shifted(n):
        counts = list(real(n).coeffs)
        counts[0], counts[1] = counts[0] - 1, counts[1] + 1
        return poincare.IntPolynomial.from_coeffs(counts)

    monkeypatch.setattr(poincare, "sym_inversion_histogram", shifted)


def _bump_ideal_generating(k):
    # palindromic and convolution rest on the closed forms alone, so these
    # faults go in prod (1 + t^i); the enumerated ideal histogram and the
    # convolution see any change to it, and so fail with them
    def fault(monkeypatch):
        real = poincare.ideal_generating

        def bumped(n):
            coeffs = list(real(n).coeffs)
            coeffs[k] += 1
            return poincare.IntPolynomial.from_coeffs(coeffs)

        monkeypatch.setattr(poincare, "ideal_generating", bumped)

    return fault


_IDEAL_HISTOGRAM = "poincare.ideal-dimension-histogram"
_CLOSED_FORM_IDS = {_IDEAL_HISTOGRAM, "poincare.histogram-convolution"}

# (records, fault, failing): the fault fails every record in records, and
# verify --rank 3 then fails exactly the records in failing
_FAULT_MATRIX = (
    [
        pytest.param({case[0]}, *case[1:], id=case[0])
        for case in (
            # the dimension histogram reads the same walk, so it loses the
            # full staircase too
            ("ideal-count", _drop_last_ideal, {"ideal-count", _IDEAL_HISTOGRAM}),
            (
                "poincare.weyl-length-histogram",
                _shift_one_scan_length,
                {"poincare.weyl-length-histogram", "classes.class-count-per-degree"},
            ),
            (
                "poincare.sym-inversion-histogram",
                _shift_one_inversion_count,
                {"poincare.sym-inversion-histogram"},
            ),
            (
                "poincare.palindromic",
                _bump_ideal_generating(0),
                _CLOSED_FORM_IDS | {"poincare.palindromic"},
            ),
        )
    ]
    + [
        pytest.param(
            {"ideal-count"},
            _repeat_first_ideal,
            {"ideal-count", _IDEAL_HISTOGRAM},
            id="ideal-count-repeat",
        ),
        # sp * ig == wp also certifies the quotient wp / sp == ig, since Z[t]
        # has no zero divisors and sp != 0, so this one record checks the
        # paper's quotient identity.  t^3 is the middle of the degree-6 form,
        # so it stays palindromic
        pytest.param(
            {"poincare.histogram-convolution"},
            _bump_ideal_generating(3),
            _CLOSED_FORM_IDS,
            id="histogram-convolution",
        ),
    ]
)


@pytest.mark.parametrize("records, fault, failing", _FAULT_MATRIX)
def test_a_fault_under_each_record_fails_verify(
    monkeypatch, capsys, tmp_path, records, fault, failing
):
    fault(monkeypatch)
    code, text = run_cli(["verify", "--rank", "3"], tmp_path)
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    assert records <= failing
    assert {c["id"] for c in json.loads(text)["checks"] if not c["pass"]} == failing


# The records of verify --rank 3 that no case of the fault matrix names, each
# with an existing test that injects a fault which fails it
_FAULT_ELSEWHERE = {
    "increasing-vs-root-addition": "tests/test_cli.py::test_broken_order_certificate_fails_verify",
    "lie-vs-combinatorial": (
        "tests/test_cli.py::test_broken_structure_table_fails_the_lie_certificate"
    ),
    "bijection.pair-injective": (
        "tests/test_correspondence.py::test_distinct_pairs_exact_when_the_pair_map_is_not_injective"
    ),
    "bijection.pair-onto": (
        "tests/test_correspondence.py::test_distinct_pairs_exact_when_the_pair_map_is_not_injective"
    ),
    "bijection.sym-component-inversions": (
        "tests/test_correspondence.py::test_wrong_walked_sum_bits_match_a_per_element_evaluation"
    ),
    "bijection.ideal-component-increasing": (
        "tests/test_correspondence.py::test_wrong_walked_sum_bits_match_a_per_element_evaluation"
    ),
    "bijection.support-identity": (
        "tests/test_correspondence.py::test_corrupt_rho_table_fails_the_support_identity"
    ),
    "bijection.degree-additivity": "tests/test_ce.py::test_pair_cocycle_degree_can_fail",
    "bijection.constructive-inverse": (
        "tests/test_correspondence.py::test_broken_inverse_fails_the_gates"
    ),
    "bijection.closed-form-sym": (
        "tests/test_correspondence.py::test_broken_closed_form_fails_its_gate"
    ),
    "bijection.closed-form-ideal": (
        "tests/test_correspondence.py::test_broken_closed_form_fails_its_gate"
    ),
    "poincare.ideal-dimension-histogram": (
        "tests/test_cli.py::test_broken_dimension_histogram_fails_verify"
    ),
    "betti-match": "tests/test_poincare.py::test_verify_identities_detects_bad_betti",
    "classes.laplacian-scalar": (
        "tests/test_ce.py::test_cocycles_closed_needs_the_laplacian_certificate"
    ),
    "classes.cocycles-closed": (
        "tests/test_ce.py::test_a_corrupted_row_fails_closed_and_independent"
    ),
    "classes.class-count-per-degree": (
        "tests/test_ce.py::test_a_wrong_scan_histogram_fails_class_count_per_degree"
    ),
    "classes.classes-independent": "tests/test_ce.py::test_classes_independent_can_fail",
    "classes.pair-cocycles-match": "tests/test_ce.py::test_pair_cocycles_match_can_fail",
    "classes.pair-cocycle-degree": "tests/test_ce.py::test_pair_cocycle_degree_can_fail",
}


def test_every_verify_record_has_a_fault(tmp_path):
    # a record added to verify without a fault that fails it fails here
    code, text = run_cli(["verify", "--rank", "3"], tmp_path)
    assert code == 0
    ids = [c["id"] for c in json.loads(text)["checks"]]
    in_matrix = set().union(*(case.values[0] for case in _FAULT_MATRIX))
    assert in_matrix.isdisjoint(_FAULT_ELSEWHERE)
    assert in_matrix | set(_FAULT_ELSEWHERE) == set(ids)
    for node in set(_FAULT_ELSEWHERE.values()):
        path, _, name = node.partition("::")
        assert path.startswith("tests/") and path.endswith(".py"), node
        module = importlib.import_module(path[len("tests/") : -len(".py")])
        assert callable(getattr(module, name, None)), f"{node} does not exist"


def test_invalid_rank_is_usage_error():
    assert main(["verify", "--rank", "0"]) == 2
    assert main(["ideals", "--rank", "-3"]) == 2


def test_cohomology_cap_is_usage_error(tmp_path):
    assert main(["betti", "--rank", "7"]) == 2
    assert main(["classes", "--rank", "7"]) == 2
    # rank 6 is the default cap, and the opt-in flag is retired
    code, text = run_cli(["betti", "--rank", "5"], tmp_path)
    assert code == 0
    assert json.loads(text)["data"]["betti"] == list(poincare.weyl_poincare(5).coeffs)
    with pytest.raises(SystemExit) as exc:
        main(["betti", "--rank", "4", "--allow-rank4-cohomology"])
    assert exc.value.code == 2


def test_csv_not_available_for_reports():
    assert main(["verify", "--rank", "2", "--format", "csv"]) == 2
    assert main(["classes", "--rank", "2", "--format", "csv"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--rank", "7"],
        ["classes", "--rank", "2"],
        ["bijection", "--rank", "3"],
        ["bijection", "--rank", "3", "--witness", "[2,-1,3]"],
    ],
)
def test_csv_for_a_report_is_refused_before_any_work(monkeypatch, capsys, argv):
    def no_work(cfg):
        raise AssertionError("the command ran")

    for command in cli.NO_CSV:
        monkeypatch.setitem(cli._HANDLERS, command, no_work)
    assert main(argv + ["--format", "csv"]) == 2
    assert capsys.readouterr().err == f"error: command {argv[0]} has no CSV form\n"


def test_ideals_json_and_csv(tmp_path):
    code, text = run_cli(["ideals", "--rank", "3", "--list"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["data"]["count"] == 8
    assert doc["data"]["histogram"] == [1, 1, 1, 2, 1, 1, 1]
    assert {"roots": [], "dimension": 0} in doc["data"]["ideals"]

    code, text = run_cli(
        ["ideals", "--rank", "2", "--format", "csv"], tmp_path, "h.csv"
    )
    assert code == 0
    assert text.splitlines() == ["dimension,count", "0,1", "1,1", "2,1", "3,1"]


def test_weyl_command(tmp_path):
    code, text = run_cli(["weyl", "--rank", "2", "--list"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["data"]["order"] == 8
    assert doc["data"]["length_histogram"] == [1, 2, 2, 2, 1]
    elems = {e["element"] for e in doc["data"]["elements"]}
    assert elems == {
        "[1,2]", "[2,1]", "[-1,2]", "[2,-1]", "[1,-2]", "[-2,1]", "[-1,-2]", "[-2,-1]",
    }


def test_weyl_list_csv_writes_the_listing(tmp_path):
    code, text = run_cli(["weyl", "--rank", "2", "--list", "--format", "csv"], tmp_path, "w.csv")
    assert code == 0
    assert text.splitlines() == [
        "element,length,flipped_values,permutation",
        '"[1,2]",0,,1 2',
        '"[2,1]",1,,2 1',
        '"[-1,2]",3,1,1 2',
        '"[2,-1]",2,1,2 1',
        '"[1,-2]",1,2,1 2',
        '"[-2,1]",2,2,2 1',
        '"[-1,-2]",4,1 2,1 2',
        '"[-2,-1]",3,2 1,2 1',
    ]


def test_structure_csv(tmp_path):
    code, text = run_cli(["structure", "--rank", "2", "--format", "csv"], tmp_path, "s.csv")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "alpha,beta,gamma,c"
    assert "e1-e2,e1+e2,2e1,2" in lines
    assert "e1-e2,2e2,e1+e2,1" in lines


def test_bijection_report_and_witness(tmp_path):
    code, text = run_cli(["bijection", "--rank", "3"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["data"]["elements"] == 48

    code, text = run_cli(
        ["bijection", "--rank", "2", "--witness", "[-1,2]"], tmp_path, "w.json"
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["data"]["sym_component"] == [2, 1]
    assert doc["data"]["support_matches_inversions"] is True


def test_bijection_witness_rank_mismatch():
    assert main(["bijection", "--rank", "3", "--witness", "[-1,2]"]) == 2


def test_witness_cap_refuses_before_parsing(monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("witness parsed or traced above the cap")

    monkeypatch.setattr(weyl, "parse_signed_perm", no_work)
    monkeypatch.setattr(correspondence, "trace_element", no_work)
    n = roots.CAPS["witness"] + 1
    witness = "[" + ",".join(map(str, range(1, n + 1))) + "]"
    assert main(["bijection", "--rank", str(n), "--witness", witness]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: rank {n} exceeds the witness cap {roots.CAPS['witness']}\n"


@pytest.mark.parametrize(
    "witness", ["[]", "[1,,2]", "[1.5,2]", "[\uff11,2,3]", "[+1,2,3]", "[1_0,2,3]"]
)
def test_malformed_witness_is_a_usage_error(capsys, witness):
    # the rank is the number of entries, so that only the parse can refuse
    rank = str(witness.count(",") + 1)
    assert main(["bijection", "--rank", rank, "--witness", witness]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot parse signed permutation {witness!r}\n"


def test_betti_command(tmp_path):
    code, text = run_cli(["betti", "--rank", "2", "--per-weight"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["data"]["betti"] == [1, 2, 2, 2, 1]
    assert doc["data"]["class_counts"] == [1, 2, 2, 2, 1]
    assert any(b["degree"] == 1 for b in doc["data"]["blocks"])

    # per degree p: b_p = dim C^p - rank(d out of C^p) - rank(d into C^p)
    for n in (2, 3):
        code, text = run_cli(["betti", "--rank", str(n), "--per-weight"], tmp_path)
        assert code == 0
        data = json.loads(text)["data"]
        dims = [0] * (n * n + 1)
        ranks = [0] * (n * n + 1)
        for block in data["blocks"]:
            dims[block["degree"]] += block["dimension"]
            ranks[block["degree"]] += block["rank_d"]
        assert sum(dims) == 2 ** (n * n)
        assert data["betti"] == [
            dims[p] - ranks[p] - (ranks[p - 1] if p else 0) for p in range(n * n + 1)
        ]


def test_betti_per_weight_csv_writes_the_listing(tmp_path):
    code, text = run_cli(["betti", "--rank", "2", "--per-weight"], tmp_path)
    assert code == 0
    blocks = json.loads(text)["data"]["blocks"]
    code, text = run_cli(
        ["betti", "--rank", "2", "--per-weight", "--format", "csv"], tmp_path, "b.csv"
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "degree,weight,dimension,rank_d"
    assert lines[1:] == [
        f"{b['degree']},{' '.join(map(str, b['weight']))},{b['dimension']},{b['rank_d']}"
        for b in blocks
    ]
    assert len(blocks) == 16
    assert "1,1 1,1,1" in lines and "4,4 2,1,0" in lines


def test_classes_command(tmp_path):
    code, text = run_cli(["classes", "--rank", "2"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert all(c["pass"] for c in doc["checks"])


def test_poincare_command(tmp_path):
    code, text = run_cli(["poincare", "--rank", "4"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["data"]["weyl_poincare"][:3] == [1, 4, 9]
    assert doc["data"]["sym_times_ideal"] == doc["data"]["weyl_poincare"]
    assert doc["checks"][0]["detail"]["product"] == doc["data"]["sym_times_ideal"]

    code, text = run_cli(["poincare", "--rank", "2", "--format", "csv"], tmp_path, "p.csv")
    assert code == 0
    lines = text.splitlines()
    assert lines[1] == "weyl_poincare,1,2,2,2,1"
    assert lines[4] == "sym_times_ideal,1,2,2,2,1"

    # the formula records need no group enumeration, so no group cap applies
    code, text = run_cli(["poincare", "--rank", "9"], tmp_path, "p9.json")
    assert code == 0
    assert all(c["pass"] for c in json.loads(text)["checks"])


def test_poincare_cap_refuses_before_any_product(monkeypatch, capsys):
    def no_product(self, other):
        raise AssertionError("a product was formed above the poincare cap")

    monkeypatch.setattr(poincare.IntPolynomial, "__mul__", no_product)
    cap = roots.CAPS["poincare"]
    for n in (cap + 1, 200):
        assert main(["poincare", "--rank", str(n)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: rank {n} exceeds the poincare cap {cap}\n"
    roots.check_cap(cap, "poincare")


def test_structure_cap_refuses_before_the_table(monkeypatch, capsys):
    def no_table(n):
        raise AssertionError("the structure table was built above the structure cap")

    monkeypatch.setattr(liealg, "structure_table", no_table)
    cap = roots.CAPS["structure"]
    n = cap + 1
    assert main(["structure", "--rank", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: rank {n} exceeds the structure cap {cap}\n"


def test_workers_flag_matches_serial(tmp_path):
    _, serial = run_cli(["bijection", "--rank", "3", "--workers", "1"], tmp_path, "s.json")
    _, parallel = run_cli(["bijection", "--rank", "3", "--workers", "3"], tmp_path, "p.json")
    assert serial == parallel


@pytest.mark.parametrize(
    "args",
    [
        ["ideals", "--rank", "2", "--workers", "2"],
        ["betti", "--rank", "2", "--workers", "2"],
        ["poincare", "--rank", "2", "--allow-rank4-cohomology"],
        ["bijection", "--rank", "2", "--allow-rank4-cohomology"],
        *(
            [command, "--rank", "2", "--seed", "0"]
            for command in ("ideals", "weyl", "structure", "betti", "classes", "poincare")
        ),
    ],
)
def test_flags_scoped_to_their_commands(args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2


def test_verify_fails_fast_above_group_cap(monkeypatch, capsys):
    def no_listing(n):
        raise AssertionError("the ideals are listed before the group cap is checked")

    monkeypatch.setattr(ideals, "_staircases", no_listing)
    assert main(["verify", "--rank", "9"]) == 2
    assert "group enumeration cap" in capsys.readouterr().err


def test_listing_caps_refuse_before_enumerating(tmp_path, monkeypatch, capsys):
    def no_enumeration(*args):
        raise AssertionError("enumerated above a cap")

    monkeypatch.setattr(ideals, "enumerate_increasing", no_enumeration)
    # the count comes from the histogram; no ideal is built without --list
    code, text = run_cli(["ideals", "--rank", "10"], tmp_path)
    assert code == 0 and json.loads(text)["data"]["count"] == 1024

    monkeypatch.setattr(ideals, "_staircases", no_enumeration)
    monkeypatch.setattr(poincare, "weyl_length_histogram", no_enumeration)
    monkeypatch.setattr(weyl, "enumerate_group", no_enumeration)
    monkeypatch.setattr(ce, "_weight_dp", no_enumeration)
    ideal_cap = roots.CAPS["ideal enumeration"]
    for args in (
        ["ideals", "--rank", str(ideal_cap + 1)],
        ["ideals", "--rank", str(roots.CAPS["ideals listing"] + 1), "--list"],
        ["weyl", "--rank", str(roots.CAPS["weyl listing"] + 1), "--list"],
        ["betti", "--rank", str(roots.CAPS["betti listing"] + 1), "--per-weight"],
    ):
        assert main(args) == 2
        assert "cap" in capsys.readouterr().err
    with pytest.raises(RankCapError):
        roots.check_cap(ideal_cap + 1, "ideal enumeration")
    roots.check_cap(ideal_cap, "ideal enumeration")


def test_listing_caps_allow_up_to_the_cap(tmp_path, monkeypatch):
    monkeypatch.setitem(roots.CAPS, "ideals listing", 3)
    monkeypatch.setitem(roots.CAPS, "weyl listing", 2)
    assert run_cli(["ideals", "--rank", "3", "--list"], tmp_path)[0] == 0
    assert run_cli(["weyl", "--rank", "2", "--list"], tmp_path)[0] == 0
    assert main(["ideals", "--rank", "4", "--list"]) == 2
    assert main(["weyl", "--rank", "3", "--list"]) == 2
    # without --list only the enumeration caps apply
    assert run_cli(["ideals", "--rank", "4"], tmp_path)[0] == 0
    assert run_cli(["weyl", "--rank", "3"], tmp_path)[0] == 0


# (argv, cap, name): every cap the CLI applies, with the name its message
# uses, which is its key in roots.CAPS
_EVERY_CAP = [
    (argv, roots.CAPS[what], what)
    for argv, what in [
        (["verify"], "group enumeration"),
        (["bijection"], "group enumeration"),
        (["weyl"], "group enumeration"),
        (["betti"], "cohomology"),
        (["classes"], "cohomology"),
        (["ideals"], "ideal enumeration"),
        (["ideals", "--list"], "ideals listing"),
        (["weyl", "--list"], "weyl listing"),
        (["betti", "--per-weight"], "betti listing"),
        (["poincare"], "poincare"),
        (["structure"], "structure"),
        (["bijection", "--witness"], "witness"),
    ]
]


# (owner, entry point, cap name): every library entry point that refuses
# above a cap
_LIBRARY_CAPS = [
    (weyl, "enumerate_group", "group enumeration"),
    (poincare, "weyl_length_histogram", "group enumeration"),
    (poincare, "sym_inversion_histogram", "group enumeration"),
    (correspondence, "verify_bijection", "group enumeration"),
    (ideals, "enumerate_increasing", "ideal enumeration"),
    (ideals, "order_certificate", "ideal enumeration"),
    (ideals, "dimension_histogram", "ideal enumeration"),
    (ce, "betti_numbers", "cohomology"),
    (ce, "verify_cohomology_basis", "cohomology"),
]


@pytest.mark.parametrize("owner, name, what", _LIBRARY_CAPS, ids=[c[1] for c in _LIBRARY_CAPS])
def test_every_library_entry_point_refuses_one_above_with_the_cli_message(
    capsys, owner, name, what
):
    cap = roots.CAPS[what]
    with pytest.raises(RankCapError) as exc:
        result = getattr(owner, name)(cap + 1)
        next(result)  # an enumerator is a generator, which refuses when first run
    argv = next(argv for argv, _cap, key in _EVERY_CAP if key == what)
    assert main(one_above(argv, cap)) == 2
    assert capsys.readouterr().err == f"error: {exc.value}\n"


def test_one_table_entry_raises_a_cap_for_every_module(tmp_path, monkeypatch):
    # every module is imported above, so a copy bound at import would show here
    monkeypatch.setitem(roots.CAPS, "group enumeration", 9)
    code, text = run_cli(["verify", "--rank", "9"], tmp_path)
    assert code == 0
    assert json.loads(text)["data"]["bijection.elements"] == 2**9 * 362880


def test_every_cap_but_the_oracles_is_applied_by_the_cli():
    # only the test oracle ce.ChainComplex, which no command builds, reads
    # the cochain-complex cap
    assert {what for _argv, _cap, what in _EVERY_CAP} == set(roots.CAPS) - {"cochain-complex"}


def one_above(argv, cap):
    """The command line of argv at rank cap + 1, with an identity witness
    of that rank for --witness."""
    n = cap + 1
    if argv[-1] == "--witness":
        argv = argv + ["[" + ",".join(map(str, range(1, n + 1))) + "]"]
    return argv + ["--rank", str(n)]


@pytest.mark.parametrize("argv, cap, what", _EVERY_CAP, ids=[" ".join(c[0]) for c in _EVERY_CAP])
def test_every_cap_refuses_one_above_with_one_message(monkeypatch, capsys, argv, cap, what):
    def no_work(*args, **kwargs):
        raise AssertionError("enumerated above a cap")

    for owner, name in [
        (ideals, "enumerate_increasing"),
        (ideals, "_staircases"),
        (weyl, "enumerate_group"),
        (poincare, "_length_histogram"),
        (poincare, "_subset_dp"),
        (poincare, "_bracket_product"),
        (poincare.IntPolynomial, "__mul__"),
        (correspondence, "_scan"),
        (correspondence, "trace_element"),
        (ce, "_weight_dp"),
        (liealg, "structure_table"),
        (weyl, "parse_signed_perm"),
    ]:
        monkeypatch.setattr(owner, name, no_work)
    n = cap + 1
    assert main(one_above(argv, cap)) == 2
    assert capsys.readouterr() == ("", f"error: rank {n} exceeds the {what} cap {cap}\n")


@pytest.mark.parametrize("n", range(1, 6))
def test_poincare_command_matches_verify_identities(tmp_path, n):
    code, text = run_cli(["poincare", "--rank", str(n)], tmp_path)
    assert code == 0
    checks = json.loads(text)["checks"]
    formula_ids = {"histogram-convolution", "palindromic"}
    records = [r for r in poincare.verify_identities(n).records if r.check_id in formula_ids]
    assert [(c["id"], c["pass"], c["detail"]) for c in checks] == [
        (r.check_id, r.passed, r.detail) for r in records
    ]


def test_histogram_convolution_can_fail(tmp_path, monkeypatch, capsys):
    """A wrong S_n generating function fails histogram-convolution as a
    record; 1 + t is palindromic, so no other formula record fails."""
    monkeypatch.setattr(poincare, "sym_poincare", lambda n: poincare.IntPolynomial((1, 1)))
    code, text = run_cli(["poincare", "--rank", "3"], tmp_path)
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    failed = {c["id"] for c in json.loads(text)["checks"] if not c["pass"]}
    assert failed == {"histogram-convolution"}
    report = poincare.verify_identities(3)
    assert "histogram-convolution" in {r.check_id for r in report.records if not r.passed}


@pytest.mark.parametrize("where", ["directory", "missing-parent", "file-parent"])
def test_unwritable_out_is_usage_error(monkeypatch, tmp_path, capsys, where):
    def no_work(args):
        raise AssertionError("the command ran")

    for command in cli._HANDLERS:
        monkeypatch.setitem(cli._HANDLERS, command, no_work)
    (tmp_path / "file").write_text("")
    out = {
        "directory": tmp_path,
        "missing-parent": tmp_path / "missing" / "x.json",
        "file-parent": tmp_path / "file" / "x.json",
    }[where]
    before = sorted(tmp_path.rglob("*"))
    assert main(["ideals", "--rank", "20", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["bijection", "verify"])
def test_workers_below_1_is_a_usage_error_before_any_work(monkeypatch, capsys, command):
    def no_work(args):
        raise AssertionError("the command ran")

    monkeypatch.setitem(cli._HANDLERS, command, no_work)
    assert main([command, "--rank", "2", "--workers", "0"]) == 2
    assert capsys.readouterr() == ("", "error: workers must be >= 1, got 0\n")


@pytest.mark.parametrize("command", ["ideals", "verify"])
def test_empty_out_is_a_usage_error_before_any_work(monkeypatch, capsys, command):
    def no_work(args):
        raise AssertionError("the command ran")

    monkeypatch.setitem(cli._HANDLERS, command, no_work)
    assert main([command, "--rank", "2", "--out", ""]) == 2
    assert capsys.readouterr() == ("", "error: --out needs a file path\n")


_EVERY_RUN = [
    ["ideals"],
    ["ideals", "--list"],
    ["weyl"],
    ["weyl", "--list"],
    ["bijection"],
    ["bijection", "--witness", "[2,-1,3]"],
    ["structure"],
    ["betti"],
    ["betti", "--per-weight"],
    ["classes"],
    ["poincare"],
    ["verify"],
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", _EVERY_RUN, ids=" ".join)
def test_out_file_gets_the_bytes_stdout_gets(tmp_path, capsys, argv, fmt):
    args = argv + ["--rank", "3", "--format", fmt]
    code = main(args)
    captured = capsys.readouterr()
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == code
    assert capsys.readouterr() == ("", captured.err)
    written = out.read_bytes() if out.exists() else b""
    assert written == captured.out.encode("utf-8")
    # a report has no CSV form; everything else writes something
    assert bool(written) == (code != 2)


class _FullStream(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_full_stdout_is_one_usage_error_line(monkeypatch, capsys, fmt):
    monkeypatch.setattr(sys, "stdout", _FullStream())
    assert main(["weyl", "--rank", "3", "--list", "--format", fmt]) == 2
    assert capsys.readouterr().err == "error: cannot write stdout: No space left on device\n"


# A CLI child that starts once its stdin is closed, so that the reader can
# close the stdout pipe before the first byte or after it.
_CLI_AFTER_STDIN = "import sys; from spcohom.cli import main; sys.stdin.read(); sys.exit(main())"


@pytest.mark.parametrize(
    "argv",
    [
        # about 0.4 MB, more than a pipe holds: a write fails mid-listing
        ["weyl", "--rank", "5", "--list"],
        # fits in the stdout buffer: only the final flush fails
        ["weyl", "--rank", "3"],
    ],
    ids=" ".join,
)
def test_stdout_closed_by_its_reader_is_one_usage_error_line(argv):
    # stdout block-buffered, as in a shell pipeline
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-c", _CLI_AFTER_STDIN, *argv],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**env, "PYTHONPATH": _SRC},
    )
    try:
        if "--list" in argv:
            proc.stdin.close()
            assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        proc.stdin.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert err == b"error: cannot write stdout: Broken pipe\n"


def test_one_pipe_for_both_streams_closed_by_its_reader_exits_2():
    # as in `spcohom ... 2>&1 | head -1`: the error line meets the closed pipe too
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-c", _CLI_AFTER_STDIN, "weyl", "--rank", "5", "--list"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env={**env, "PYTHONPATH": _SRC},
    )
    try:
        proc.stdin.close()
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 2
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


@pytest.mark.parametrize(
    "argv",
    [
        # fd 2 closed before start-up, so sys.stderr is None
        ["sh", "-c", 'exec "$0" "$@" 2>&-', sys.executable, "-m", "spcohom.cli"],
        # fd 2 closed after start-up, so a write to sys.stderr fails
        [sys.executable, "-c", "import os, sys; os.close(2); " + _CLI_AFTER_STDIN],
    ],
    ids=["before start-up", "after start-up"],
)
def test_a_usage_error_with_stderr_closed_exits_2(argv):
    proc = subprocess.run(
        [*argv, "verify", "--rank", "0"],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": _SRC},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, b"")


@pytest.mark.parametrize(
    "fault, code", [(None, 2), (ValueError, 3), (KeyboardInterrupt, 130)], ids=["2", "3", "130"]
)
def test_an_unwritable_stderr_keeps_the_exit_code(monkeypatch, fault, code):
    def broken(n):
        raise fault("raised inside a command")

    if fault is not None:
        monkeypatch.setattr(ideals, "dimension_histogram", broken)
    stderr = _FullStream()
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(["ideals", "--rank", "2" if fault else "0"]) == code
    assert stderr.closed


def test_internal_value_error_exits_3(monkeypatch, capsys):
    def broken(n):
        raise ValueError("a bug inside a command")

    monkeypatch.setattr(ideals, "dimension_histogram", broken)
    assert main(["ideals", "--rank", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_consistency_error_exits_3(monkeypatch, capsys):
    # a position map that permutes no sums-plus-longs
    monkeypatch.setattr(correspondence, "_position_map", lambda word: (0,) + (1,) * len(word))
    assert main(["classes", "--rank", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


# A CLI child whose gathers refuse the batch, so that the scan runs the
# element loop on every permutation, and whose element loop leaves a mark
# and then waits, so that Ctrl-C lands inside the scan.
_STALLED_SCAN = """
import os, sys, time
from spcohom import cli, correspondence

def stalled(*args):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(60)

correspondence._gathers_are_position_maps = lambda n: False
correspondence._scan_chunk = stalled
sys.exit(cli.main(sys.argv[2:]))
"""


def test_ctrl_c_exits_130_with_one_line(tmp_path):
    proc = subprocess.Popen(
        [sys.executable, "-c", _STALLED_SCAN, str(tmp_path), "bijection", "--rank", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC},
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not os.listdir(tmp_path):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    assert proc.returncode == 130
    assert (out, err) == ("", "error: interrupted\n")


# A CLI child whose gathers refuse the batch, so that the scan runs the
# element loop on every permutation, on a host that reports two CPUs; it
# says on stderr whether multiprocessing was ever imported.
_FAILING_BATCH = """
import os, sys
from spcohom import cli, correspondence

correspondence._gathers_are_position_maps = lambda n: False
os.sched_getaffinity = lambda pid: {0, 1}
code = cli.main(sys.argv[1:])
print("multiprocessing" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def test_a_scan_that_runs_the_element_loop_stays_in_one_process():
    def run(workers):
        return subprocess.run(
            [sys.executable, "-c", _FAILING_BATCH, "bijection", "--rank", "4",
             "--workers", workers],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": _SRC},
            timeout=60,
        )

    serial, parallel = run("1"), run("2")
    assert (parallel.returncode, parallel.stderr) == (0, "False\n")
    assert (serial.returncode, serial.stderr) == (0, "False\n")
    assert json.loads(parallel.stdout)["data"]["elements"] == 384
    assert parallel.stdout == serial.stdout


def test_the_cli_imports_no_rational_arithmetic():
    # the runtime is integer-only: no command needs fractions or decimal
    guarded = "{'fractions', 'decimal'}"
    probe = f"import sys, spcohom.cli; print(sorted({guarded} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
