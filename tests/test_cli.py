import json
import re
from fractions import Fraction

import pytest

from qhact.cli import main, parse_scalar
from qhact.classify import m2_family
from qhact.cyclotomic import InputError, zeta
from qhact.hopf import instance_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_job(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_parse_scalar():
    q = zeta(5)
    assert parse_scalar("q^2", q) == q * q
    assert parse_scalar("q^-2", q) == (q * q).inv()
    assert parse_scalar("q", q) == q
    assert parse_scalar(3) == 3
    assert parse_scalar("1/2") == Fraction(1, 2)
    assert parse_scalar({"level": 5, "coeffs": ["0", "1", "0", "0"]}) == q
    with pytest.raises(InputError):
        parse_scalar("q^2")  # no ambient q
    with pytest.raises(InputError):
        parse_scalar("wat")
    for flag in (True, False):  # bool is an int to Python, not to a job
        with pytest.raises(InputError, match="lambda"):
            parse_scalar(flag, q, "lambda")


def test_verify_exit_codes(tmp_path, capsys):
    inst = m2_family(zeta(5), 1).instance()
    good = write_job(tmp_path, "good.json", {"instance": instance_to_json(inst), "inner_faithful": True})
    code, out, _ = run_cli(capsys, "verify", "--job", good, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["inner_faithfulness"]["verdict"] == "inner_faithful"

    bad_obj = instance_to_json(inst)
    bad_obj["grouplikes"][0]["alpha"][0] = (zeta(5) ** 2).to_json()
    bad = write_job(tmp_path, "bad.json", {"instance": bad_obj})
    code, out, _ = run_cli(capsys, "verify", "--job", bad, "--json")
    assert code == 1
    assert json.loads(out)["violations"]

    err_obj = instance_to_json(inst)
    err_obj["presentation"]["q"] = {"level": 5, "coeffs": ["0", "0", "0", "0"]}
    err = write_job(tmp_path, "err.json", {"instance": err_obj})
    code, _, errtxt = run_cli(capsys, "verify", "--job", err, "--json")
    assert code == 2
    assert "error" in errtxt


def test_search_report(tmp_path, capsys):
    job = write_job(tmp_path, "s.json", {"target": "matrix", "N": 2, "ord_q": 5, "lambda": "q^2"})
    code, out, _ = run_cli(capsys, "search", "--job", job, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 3
    assert sorted(f["tag"] for f in report["families"]) == ["r1", "r2", "r3"]
    # markdown rendering is derived from the same report
    code, out_md, _ = run_cli(capsys, "search", "--job", job)
    assert code == 0 and "| r1 |" in out_md


def test_search_lambda_at_any_level(tmp_path, capsys):
    # q^2 at ord q = 5 written at level 10 (-zeta_10^3): the sweep runs at
    # level 5, which 10 does not divide
    q2_level10 = {"level": 10, "coeffs": ["-1", "1", "-1", "1"]}
    assert parse_scalar(q2_level10) == zeta(5) ** 2
    reports = []
    for lam in ("q^2", q2_level10):
        job = write_job(tmp_path, "s.json", {"target": "matrix", "N": 2, "ord_q": 5, "lambda": lam})
        code, out, err = run_cli(capsys, "search", "--job", job, "--json")
        assert code == 0, err
        reports.append(out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["count"] == 3
    # a lambda that is no root of unity is still refused, naming the field
    _assert_input_error(capsys, tmp_path, "search",
                        {"target": "matrix", "N": 2, "ord_q": 5, "lambda": 2}, "lambda")


def test_compat_cell(tmp_path, capsys):
    job = write_job(tmp_path, "c.json", {"target": "M2", "rows": [1, 8], "ord_q": 5})
    code, out, _ = run_cli(capsys, "compat", "--job", job, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["compatible"] and report["zeta_as_q_power"] == -2


def test_maxrank(tmp_path, capsys):
    job = write_job(tmp_path, "m.json", {"target": "M2", "ord_q": 5})
    code, out, _ = run_cli(capsys, "max-rank", "--job", job, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["theta"] == 3 and report["witness_verifies"]


def test_reports_deterministic(tmp_path, capsys):
    job = write_job(tmp_path, "s.json", {"target": "matrix", "N": 2, "ord_q": 5, "lambda": "q^4"})
    _, out1, _ = run_cli(capsys, "search", "--job", job, "--json")
    _, out2, _ = run_cli(capsys, "search", "--job", job, "--json")
    assert out1 == out2


def test_qdet_and_invariants(tmp_path, capsys):
    job = write_job(
        tmp_path, "q.json", {"N": 2, "ord_q": 5, "checks": ["centrality", "laplace", "stability"]}
    )
    code, out, _ = run_cli(capsys, "qdet", "--job", job, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["centrality"] is True
    assert report["results"]["stability"]["r1"] == {"g_fixes_det": True, "x_kills_det": True}
    assert report["results"]["stability"]["r7"]["x_kills_det"] is False

    job2 = write_job(
        tmp_path,
        "i.json",
        {"k": 3, "m": 6, "checks": ["match"], "case": "divides_km", "degree_bound": 18},
    )
    code, out, _ = run_cli(capsys, "invariants", "--job", job2, "--json")
    assert code == 0
    assert json.loads(out)["results"]["match"]["match"] is True


def test_suite_subset(tmp_path, capsys):
    job = write_job(tmp_path, "suite.json", {"criteria": [3, 12]})
    code, out, _ = run_cli(capsys, "suite", "--job", job, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"]
    assert [r["id"] for r in report["results"]] == [3, 12]
    # markdown table derives from the same data
    code, out_md, _ = run_cli(capsys, "suite", "--job", job)
    assert "| 3 |" in out_md and "| 12 |" in out_md


def test_suite_gating(tmp_path, capsys):
    job = write_job(tmp_path, "gate.json", {"criteria": [2], "ord_q": 4})
    code, out, _ = run_cli(capsys, "suite", "--job", job, "--json")
    report = json.loads(out)
    assert report["results"][0]["status"] == "skip"
    assert code == 0  # a skipped criterion is not a failure


def test_missing_job_is_input_error(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2 and "job" in err


def test_malformed_json_job(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", "--job", str(path), "--json")
    assert code == 2 and "error" in err


def test_suite_json_deterministic_modulo_seconds(tmp_path, capsys):
    job = write_job(tmp_path, "suite.json", {"criteria": [3]})

    def normalized():
        _, out, _ = run_cli(capsys, "suite", "--job", job, "--json")
        rep = json.loads(out)
        for r in rep["results"]:
            r.pop("seconds", None)
        return json.dumps(rep, sort_keys=True)

    assert normalized() == normalized()


def test_search_affine_explicit_p(tmp_path, capsys):
    from qhact.classify import generic_affine_p

    p = generic_affine_p(3, 5)
    job = write_job(
        tmp_path,
        "aff.json",
        {"target": "affine", "m": 5, "p": [[e.to_json() for e in row] for row in p]},
    )
    code, out, _ = run_cli(capsys, "search", "--job", job, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 24
    assert all(f["tag"].startswith("pair(") for f in report["families"])


def test_level_override(tmp_path, capsys):
    # a level override that is a proper multiple still finds the same families
    job = write_job(tmp_path, "pl.json", {"target": "plane", "k": 3, "m": 3})
    code, out, _ = run_cli(capsys, "search", "--job", job, "--json", "--level", "6")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 4


@pytest.mark.parametrize("target", ["plane", "weyl"])
def test_level_override_is_lifted_to_the_search_level(tmp_path, capsys, target):
    # as on the matrix and affine targets, --level 7 runs the (3, 3) search
    # at lcm(7, 3) and finds what it finds without the flag
    job = write_job(tmp_path, "pl.json", {"target": target, "k": 3, "m": 3})
    found = []
    for extra in ((), ("--level", "7")):
        code, out, err = run_cli(capsys, "search", "--job", job, "--json", *extra)
        assert code == 0, err
        report = json.loads(out)
        found.append((report["count"], [f["tag"] for f in report["families"]]))
    assert found[0] == found[1] and found[0][0] > 0


# every integer field of the README job schemas, given a non-integer string,
# a float or a boolean, and every required part of a verify instance,
# deleted: exit 2, no traceback
INT_FIELD_JOBS = [
    ("search", {"target": "matrix", "N": 2, "ord_q": 5, "lambda": "q^2"}, "N"),
    ("search", {"target": "matrix", "N": 2, "ord_q": 5, "lambda": "q^2"}, "ord_q"),
    ("search", {"target": "plane", "k": 3, "m": 3}, "k"),
    ("search", {"target": "plane", "k": 3, "m": 3}, "m"),
    ("search", {"target": "weyl", "k": 5, "m": 5}, "k"),
    ("search", {"target": "weyl", "k": 5, "m": 5}, "m"),
    ("search", {"target": "affine", "t": 3, "order": 5, "m": 5}, "t"),
    ("search", {"target": "affine", "t": 3, "order": 5, "m": 5}, "order"),
    ("search", {"target": "affine", "t": 3, "order": 5, "m": 5}, "m"),
    ("compat", {"target": "M2", "rows": [1, 8], "ord_q": 5}, "ord_q"),
    ("compat", {"target": "M2", "rows": [1, 8], "ord_q": 5}, "rows"),
    ("max-rank", {"target": "M2", "ord_q": 5}, "ord_q"),
    ("max-rank", {"target": "affine", "t": 3, "order": 5, "m": 5}, "t"),
    ("max-rank", {"target": "affine", "t": 3, "order": 5, "m": 5}, "order"),
    ("max-rank", {"target": "affine", "t": 3, "order": 5, "m": 5}, "m"),
    ("invariants", {"k": 6, "m": 4, "checks": ["trace"], "degree_bound": 20}, "k"),
    ("invariants", {"k": 6, "m": 4, "checks": ["trace"], "degree_bound": 20}, "m"),
    ("invariants", {"k": 6, "m": 4, "checks": ["trace"], "degree_bound": 20}, "degree_bound"),
    ("qdet", {"N": 3, "ord_q": 5, "checks": ["centrality"]}, "N"),
    ("qdet", {"N": 3, "ord_q": 5, "checks": ["centrality"]}, "ord_q"),
]


def _assert_input_error(capsys, tmp_path, command, payload, field, *extra):
    job = write_job(tmp_path, "job.json", payload)
    code, _, err = run_cli(capsys, command, "--job", job, "--json", *extra)
    assert code == 2, err
    assert "Traceback" not in err
    # the field as a word: "m" must not match inside "must"
    assert re.search(rf"\b{re.escape(field)}\b", json.loads(err)["error"]), err


@pytest.mark.parametrize("command,payload,field", INT_FIELD_JOBS)
def test_non_integer_field_is_input_error(tmp_path, capsys, command, payload, field):
    # a float is not rounded and a boolean is not read as 0 or 1
    for bad in ("two", 4.9, 3.0, True):
        job = dict(payload)
        job[field] = [1, bad] if field == "rows" else bad
        _assert_input_error(capsys, tmp_path, command, job, field)


@pytest.mark.parametrize("path", [("grouplikes",), ("skews",), ("hopf", "type")])
def test_verify_instance_missing_part_is_input_error(tmp_path, capsys, path):
    obj = instance_to_json(m2_family(zeta(5), 1).instance())
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    _assert_input_error(capsys, tmp_path, "verify", {"instance": obj}, path[-1])


def test_raising_criterion_is_a_fail_row(tmp_path, capsys, monkeypatch):
    from qhact import suite

    def criterion_broken():
        """A criterion whose verification raises."""
        raise InputError("family member failed verification: [...]")

    monkeypatch.setitem(suite.CRITERIA, 3, criterion_broken)
    rows = suite.run_suite([3, 12])
    assert [r["status"] for r in rows] == ["fail", "pass"]
    assert rows[0]["name"] == "A criterion whose verification raises."
    assert "family member failed verification" in rows[0]["detail"]
    job = write_job(tmp_path, "suite.json", {"criteria": [3]})
    code, out, err = run_cli(capsys, "suite", "--job", job, "--json")
    assert code == 1, err
    assert json.loads(out)["results"][0]["status"] == "fail"


# sha256 of the --json report for fixed search, compat and max-rank jobs:
# the search, compatibility and patching layers must reproduce these
# reports byte for byte
REPORT_DIGESTS = [
    ("search", {"target": "plane", "k": 3, "m": 4},
     "cc0fd7a22850a138167aa7b9b88108daf7770daf2ba4e022e0c4bf3cb50563de"),
    ("search", {"target": "weyl", "k": 5, "m": 5},
     "900bfb1998754f9c3eafda706ebfaed56494388c467930690eefedbda57427c9"),
    ("search", {"target": "affine", "t": 3, "order": 5, "m": 5},
     "4a97d23a5c05aeb90ce76e310d1d38921fbe8d48c5e86675fa474d67b52cfe8d"),
    ("search", {"target": "matrix", "N": 2, "ord_q": 5, "lambda": "q^2"},
     "e69f2ca56861880a9f7eb9461441d565bd0ed310c091400e02a617940d28a1c2"),
    ("search", {"target": "matrix", "N": 2, "ord_q": 3, "lambda": "q^2"},
     "5602273c6e655bb0884529fd1e72c04558c4b9ac114bf065d30e38af23960c5a"),
    ("max-rank", {"target": "M2", "ord_q": 5},
     "3fe45ad438f0809e76bb238571a895fbdbbf7f7fe0fa14b8ed4f578cd269b521"),
    ("max-rank", {"target": "affine", "t": 3, "order": 5, "m": 5},
     "96519f11dbac715047a2c99d578b5756991a538fcdfdf16646a1ca4bd0cd6987"),
    # the compatibility layer: a two-part cell at ord 3 and at ord 7, the
    # ord-3 table with its two extra families, and the M_3 table
    ("compat", {"target": "M2", "rows": [3, 6], "ord_q": 3},
     "ef48b37b0e074b9b34c1eb6facb03250c1183d0c622c0ad2d7ca242cd763071d"),
    ("compat", {"target": "M2", "rows": [3, 6], "ord_q": 7},
     "5c51468290c0e58116bf425f0c6de3a48eda8efe4c0f66bb76ed1b2a0883296c"),
    ("max-rank", {"target": "M2", "ord_q": 3},
     "45508b9a3ace7d31c76985dcc2fea0a8f1b4237df1590e180742f478b77e687f"),
    ("max-rank", {"target": "M3", "ord_q": 5},
     "ddada753ceda24590ade6a34e757f7c97609dce6088c3d65efca11438d1e4ce7"),
]


@pytest.mark.parametrize("command,payload,digest", REPORT_DIGESTS)
def test_report_digest(tmp_path, capsys, command, payload, digest):
    import hashlib

    job = write_job(tmp_path, "job.json", payload)
    code, out, err = run_cli(capsys, command, "--job", job, "--json")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_level_override_keeps_transposed_candidates(tmp_path, capsys, monkeypatch):
    # --level sets only the grid's level: a matrix job still sweeps the
    # transposed rank-one grid unless the job sets "tau": false
    from qhact import classify

    seen = []
    real = classify._rank_one_grid

    def recording(N, tau=False):
        seen.append(tau)
        return real(N, tau=tau)

    monkeypatch.setattr(classify, "_rank_one_grid", recording)
    payload = {"target": "matrix", "N": 2, "ord_q": 3, "lambda": "q^2"}
    job = write_job(tmp_path, "m.json", payload)
    code, _, err = run_cli(capsys, "search", "--job", job, "--json", "--level", "3")
    assert code == 0, err
    assert seen == [False, True]
    seen.clear()
    job = write_job(tmp_path, "m.json", dict(payload, tau=False))
    code, _, err = run_cli(capsys, "search", "--job", job, "--json", "--level", "3")
    assert code == 0, err
    assert seen == [False]


def _m2_instance_json():
    return instance_to_json(m2_family(zeta(5), 1).instance())


def _affine_p_json_true_diagonal():
    from qhact.classify import generic_affine_p

    p = [[e.to_json() for e in row] for row in generic_affine_p(3, 5)]
    for i, row in enumerate(p):
        row[i] = True
    return p


# sizes and shapes the engine cannot work with: exit 2 naming the field, no
# traceback
OUT_OF_RANGE_JOBS = [
    ("search", {"target": "affine", "t": 3, "order": 1, "m": 5}, "order"),
    ("search", {"target": "affine", "t": 3, "order": 2, "m": 5}, "order"),
    ("search", {"target": "matrix", "N": 0, "ord_q": 5, "lambda": "q^2"}, "N"),
    ("search", {"target": "matrix", "N": 1, "ord_q": 5, "lambda": "q^2"}, "N"),
    ("search", {"target": "matrix", "N": 2, "ord_q": 0, "lambda": "q^2"}, "ord_q"),
    ("max-rank", {"target": "affine", "t": 3, "order": 1, "m": 5}, "order"),
    ("max-rank", {"target": "M2", "ord_q": 1}, "ord_q"),
    ("max-rank", {"target": "M3", "ord_q": 2}, "ord_q"),
    ("compat", {"target": "M2", "rows": [1, 8], "ord_q": 1}, "ord_q"),
    ("qdet", {"N": 0, "ord_q": 5}, "N"),
    ("qdet", {"N": -1, "ord_q": 5}, "N"),
    ("qdet", {"N": 2, "ord_q": 0}, "ord_q"),
    ("qdet", {"N": 2, "ord_q": -3}, "ord_q"),
    ("invariants", {"k": 0, "m": 3, "checks": ["trace"]}, "k"),
    ("invariants", {"k": 3, "m": 0, "checks": ["trace"]}, "m"),
    ("invariants", {"k": 6, "m": 4, "checks": ["fixed_dims"], "degree_bound": -2}, "degree_bound"),
    ("search", {"target": "plane", "k": 0, "m": 3}, "k"),
    ("search", {"target": "plane", "k": 1, "m": 3}, "k"),
    ("search", {"target": "plane", "k": 3, "m": 2}, "m"),
    ("search", {"target": "weyl", "k": 0, "m": 5}, "k"),
    ("search", {"target": "weyl", "k": 5, "m": 0}, "m"),
    # tau is a JSON boolean: "no" is not read as true, nor null as false
    ("search", {"target": "matrix", "N": 2, "ord_q": 3, "lambda": "q^2", "tau": "no"}, "tau"),
    ("search", {"target": "matrix", "N": 2, "ord_q": 3, "lambda": "q^2", "tau": None}, "tau"),
    ("search", {"target": "matrix", "N": 2, "ord_q": 3, "lambda": "q^2", "tau": 0}, "tau"),
    ("search", {"target": "matrix", "N": 2, "ord_q": 3, "lambda": "q^2", "tau": 1}, "tau"),
    # p is a list of rows of scalars
    ("search", {"target": "affine", "m": 5, "p": [1, 2, 3]}, "p"),
    ("search", {"target": "affine", "m": 5, "p": 5}, "p"),
    ("search", {"target": "affine", "m": 5, "p": "q"}, "p"),
    # checks is a list of check names, and stability needs a 2x2 matrix or larger
    ("invariants", {"k": 3, "m": 3, "checks": "trace"}, "checks"),
    ("invariants", {"k": 3, "m": 3, "checks": ["trace", 1]}, "checks"),
    ("qdet", {"N": 2, "ord_q": 5, "checks": "centrality"}, "checks"),
    ("qdet", {"N": 2, "ord_q": 5, "checks": {"centrality": True}}, "checks"),
    ("qdet", {"N": 1, "ord_q": 5, "checks": ["stability"]}, "N"),
    # inner_faithful is a JSON boolean too: the string "false" does not run the check
    ("verify", {"instance": _m2_instance_json(), "inner_faithful": "false"}, "inner_faithful"),
    ("verify", {"instance": _m2_instance_json(), "inner_faithful": 1}, "inner_faithful"),
    ("verify", {"instance": _m2_instance_json(), "inner_faithful": None}, "inner_faithful"),
    # a JSON boolean is no scalar: true is not read as 1
    ("search", {"target": "affine", "m": 5, "p": _affine_p_json_true_diagonal()}, "p"),
    ("search", {"target": "matrix", "N": 2, "ord_q": 5, "lambda": True}, "lambda"),
    # a family number, shifted row or shifted column out of range, and a
    # shift field the family does not take
    ("compat", {"target": "M2", "rows": [0, 9], "ord_q": 5}, "rows"),
    ("compat", {"target": "M2", "rows": [1, 9], "ord_q": 5}, "rows"),
    ("compat", {"target": "M3", "rows": [9, 1], "b_c": 2, "ord_q": 5}, "rows"),
    ("compat", {"target": "M3", "rows": [2, 5], "a_r": 7, "b_c": 1, "ord_q": 5}, "a_r"),
    ("compat", {"target": "M3", "rows": [2, 5], "a_r": 2, "b_c": 3, "ord_q": 5}, "b_c"),
    ("compat", {"target": "M3", "rows": [2, 5], "b_c": 1, "ord_q": 5}, "a_r"),
    ("compat", {"target": "M3", "rows": [3, 5], "a_r": 2, "b_c": 1, "ord_q": 5}, "a_r"),
    ("compat", {"target": "M2", "rows": [1, 8], "b_r": 99, "ord_q": 5}, "b_r"),
    ("compat", {"target": "M2", "rows": [1, 8], "a_c": 1, "ord_q": 5}, "a_c"),
    # a laplace column out of 0..N-1, a stability family out of 1..8
    ("qdet", {"N": 1, "ord_q": 5, "checks": ["laplace"], "columns": [3]}, "columns"),
    ("qdet", {"N": 2, "ord_q": 5, "checks": ["laplace"], "columns": [0, -1]}, "columns"),
    ("qdet", {"N": 2, "ord_q": 5, "checks": ["stability"], "rows": [9]}, "rows"),
]


@pytest.mark.parametrize("command,payload,field", OUT_OF_RANGE_JOBS)
def test_out_of_range_field_is_input_error(tmp_path, capsys, command, payload, field):
    _assert_input_error(capsys, tmp_path, command, payload, field)


@pytest.mark.parametrize("target", [{"target": "plane", "k": 3, "m": 3},
                                    {"target": "matrix", "N": 2, "ord_q": 3, "lambda": "q^2"}])
@pytest.mark.parametrize("level", ["0", "-3"])
def test_level_below_one_is_input_error(tmp_path, capsys, target, level):
    job = write_job(tmp_path, "job.json", target)
    code, _, err = run_cli(capsys, "search", "--job", job, "--json", "--level", level)
    assert code == 2, err
    assert json.loads(err)["error"] == f"--level must be at least 1, got {level}"


def test_generic_affine_p_refuses_order_below_two():
    from qhact.classify import generic_affine_p

    with pytest.raises(InputError):
        generic_affine_p(3, 1)


def test_degree_bound_zero_is_honoured(tmp_path, capsys):
    # an explicit 0 is a bound, not "unset"
    job = write_job(tmp_path, "i.json", {"k": 6, "m": 4, "checks": ["fixed_dims"]})
    code, out, err = run_cli(capsys, "invariants", "--job", job, "--json", "--degree-bound", "0")
    assert code == 0, err
    report = json.loads(out)
    assert report["degree_bound"] == 0 and report["results"]["fixed_dims"] == [1]
    code, _, err = run_cli(capsys, "invariants", "--job", job, "--json", "--degree-bound", "-1")
    assert code == 2 and json.loads(err)["error"] == "--degree-bound must be at least 0, got -1"
    # the job's own field is named as a job field
    job = write_job(tmp_path, "i.json", {"k": 6, "m": 4, "checks": ["fixed_dims"], "degree_bound": -1})
    code, _, err = run_cli(capsys, "invariants", "--job", job, "--json")
    assert code == 2 and "job field degree_bound" in json.loads(err)["error"]


def test_invariants_k1_is_not_a_reflection(tmp_path, capsys):
    # mu = 1: diag(1, 1) is the identity, so no reflection is expected
    job = write_job(tmp_path, "i.json", {
        "k": 1, "m": 3, "checks": ["commutativity", "reflection", "trace", "molien"],
    })
    code, out, err = run_cli(capsys, "invariants", "--job", job, "--json")
    assert code == 0, out + err
    results = json.loads(out)["results"]
    assert results["reflection"] == {"is_reflection": False, "expected": False}
    assert results["commutativity"] and results["trace"] and results["molien"]["equal"]


# each README job schema with every field present; deleting a required field
# must exit 2 naming it, deleting an optional one must still exit 0
SCHEMA_JOBS = [
    ("search", {"target": "matrix", "N": 2, "ord_q": 3, "lambda": "q^2", "tau": False}, {"tau"}),
    ("search", {"target": "plane", "k": 3, "m": 3}, set()),
    ("search", {"target": "weyl", "k": 3, "m": 3}, set()),
    ("search", {"target": "affine", "t": 2, "order": 3, "m": 3}, set()),
    ("compat", {"target": "M2", "rows": [1, 8], "ord_q": 5}, set()),
    ("max-rank", {"target": "M2", "ord_q": 3}, set()),
    ("max-rank", {"target": "affine", "t": 2, "order": 3, "m": 3}, set()),
    ("invariants", {"k": 6, "m": 4, "checks": ["trace"], "degree_bound": 4},
     {"checks", "degree_bound"}),
    ("invariants", {"k": 3, "m": 6, "checks": ["match"], "case": "divides_km", "degree_bound": 6},
     {"checks", "degree_bound"}),
    ("qdet", {"N": 2, "ord_q": 5, "checks": ["centrality"]}, {"checks"}),
]
DELETION_CASES = [
    (command, payload, field, field in optional)
    for command, payload, optional in SCHEMA_JOBS
    for field in payload
]


@pytest.mark.parametrize("command,payload,field,optional", DELETION_CASES)
def test_deleted_field(tmp_path, capsys, command, payload, field, optional):
    payload = {k: v for k, v in payload.items() if k != field}
    if not optional:
        _assert_input_error(capsys, tmp_path, command, payload, field)
        return
    job = write_job(tmp_path, "job.json", payload)
    code, _, err = run_cli(capsys, command, "--job", job, "--json")
    assert code == 0, err


def _m2_rank3_json():
    from qhact.classify import example_m2_rank3

    return instance_to_json(example_m2_rank3(zeta(5)))


def _set(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


# the integer fields of a verify instance follow the rule of the job fields:
# each of these values was once read as the integer it names
INSTANCE_INT_CASES = [
    (_m2_instance_json, ("hopf", "n"), 5.0, "n"),
    (_m2_instance_json, ("hopf", "m"), "5", "m"),
    (_m2_rank3_json, ("hopf", "group"), [5.5, 5, 5], "group"),
    (_m2_instance_json, ("presentation", "N"), 2.5, "N"),
    (_m2_instance_json, ("hopf", "lambda", "level"), 12.9, "level"),
    (_m2_rank3_json, ("hopf", "chi", 0, 0), True, "chi"),
    (_m2_instance_json, ("grouplikes", 0, "perm"), [0.0, 1.0, 2.0, 3.0], "perm"),
]


@pytest.mark.parametrize("build,path,bad,field", INSTANCE_INT_CASES)
def test_instance_integer_field_is_input_error(tmp_path, capsys, build, path, bad, field):
    obj = build()
    _set(obj, path, bad)
    _assert_input_error(capsys, tmp_path, "verify", {"instance": obj}, field)


def _get(obj, path):
    for key in path:
        obj = obj[key]
    return obj


# values of a verify instance out of range name their field; bad maps the
# value at path to the refused one
INSTANCE_RANGE_CASES = [
    pytest.param(_m2_instance_json, ("hopf", "n"), lambda n: 0, "hopf.n", id="taft-n-0"),
    pytest.param(_m2_instance_json, ("hopf", "m"), lambda m: 0, "hopf.m", id="taft-m-0"),
    pytest.param(_m2_rank3_json, ("hopf", "group"), lambda g: [0] + g[1:], "hopf.group",
                 id="group-order-0"),
    pytest.param(_m2_rank3_json, ("grouplikes",), lambda gs: gs[:-1], "grouplikes",
                 id="one-grouplike-too-few"),
    pytest.param(_m2_instance_json, ("grouplikes", 0, "perm"), lambda p: p[:-1],
                 "grouplikes[0].perm", id="short-perm"),
    pytest.param(_m2_instance_json, ("skews", 0, "eta"), lambda eta: [r[:-1] for r in eta[:-1]],
                 "skews[0].eta", id="eta-too-small"),
    pytest.param(_m2_rank3_json, ("skews", 1, "eta"), lambda eta: [r[:-1] for r in eta],
                 "skews[1].eta", id="eta-not-square"),
    pytest.param(_m2_instance_json, ("grouplikes", 0, "alpha"), lambda a: a[:-1],
                 "grouplikes[0].alpha", id="short-alpha"),
    pytest.param(_m2_rank3_json, ("grouplikes", 1, "alpha"), lambda a: a + a[:1],
                 "grouplikes[1].alpha", id="long-alpha"),
    pytest.param(_m2_instance_json, ("grouplikes",), lambda gs: gs * 2, "grouplikes",
                 id="taft-two-grouplikes"),
    pytest.param(_m2_instance_json, ("skews",), lambda xs: [], "skews", id="taft-no-skew"),
    # the g, chi and gamma lists still have one entry per x_i, so skews is
    # to blame; a short g list is named beside the chi list it no longer fits
    pytest.param(_m2_rank3_json, ("skews",), lambda xs: xs[:-1], "skews",
                 id="one-skew-too-few"),
    pytest.param(_m2_rank3_json, ("hopf", "chi"), lambda c: c[:-1], "hopf.chi",
                 id="one-chi-too-few"),
    pytest.param(_m2_rank3_json, ("hopf", "g"), lambda g: g[:-1], "hopf.g", id="one-g-too-few"),
]


@pytest.mark.parametrize("build,path,bad,field", INSTANCE_RANGE_CASES)
def test_instance_out_of_range_field_is_input_error(tmp_path, capsys, build, path, bad, field):
    obj = build()
    _set(obj, path, bad(_get(obj, path)))
    _assert_input_error(capsys, tmp_path, "verify", {"instance": obj}, field)


# a presentation with no generators is refused, not handed to verification
EMPTY_PRESENTATIONS = [
    ({"family": "quantum_affine", "p": []}, "presentation.p"),
    ({"family": "quantum_exterior", "p": []}, "presentation.p"),
    ({"family": "quantum_matrix", "N": 0, "q": 1}, "presentation.N"),
    ({"family": "quantum_matrix", "N": -1, "q": 1}, "presentation.N"),
    ({"family": "quantized_weyl", "p": [], "gamma": []}, "presentation.p"),
]


@pytest.mark.parametrize("presentation,field", EMPTY_PRESENTATIONS)
def test_presentation_without_generators_is_input_error(tmp_path, capsys, presentation, field):
    obj = _m2_instance_json()
    obj["presentation"] = presentation
    _assert_input_error(capsys, tmp_path, "verify", {"instance": obj}, field)


@pytest.mark.parametrize("p", [[], 5])
def test_unknown_family_is_named(tmp_path, capsys, p):
    # the family is checked before p is read
    obj = _m2_instance_json()
    obj["presentation"] = {"family": "bogus", "p": p}
    job = write_job(tmp_path, "job.json", {"instance": obj})
    code, _, err = run_cli(capsys, "verify", "--job", job, "--json")
    assert code == 2, err
    assert "unknown family 'bogus'" in json.loads(err)["error"]


def _resize(values, n):
    return (values * n)[:n] if n > len(values) else values[:n]


# a group element or gamma list of the wrong size names its field; each of
# these once passed, failed a check, or crashed verify
MISSIZED_HOPF_CASES = [
    pytest.param("g", 4, "hopf.g", id="g-entry-too-long"),
    pytest.param("g", 2, "hopf.g", id="g-entry-too-short"),
    pytest.param("chi", 4, "hopf.chi", id="chi-entry-too-long"),
    pytest.param("gamma", 6, "hopf.gamma", id="six-gammas-for-three-skews"),
    pytest.param("gamma", 1, "hopf.gamma", id="one-gamma-for-three-skews"),
    pytest.param("gamma", None, "hopf.gamma", id="gamma-object"),
]


@pytest.mark.parametrize("key,size,field", MISSIZED_HOPF_CASES)
def test_missized_hopf_field_is_input_error(tmp_path, capsys, key, size, field):
    obj = _m2_rank3_json()
    hopf = obj["hopf"]
    if key == "gamma":
        hopf["gamma"] = {"level": 5, "coeffs": [0, 0, 0, 0]} if size is None else _resize(
            hopf["gamma"], size)
    else:
        hopf[key][0] = _resize(hopf[key][0], size)
    _assert_input_error(capsys, tmp_path, "verify", {"instance": obj}, field)


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_input_error(tmp_path, capsys, workers):
    _assert_input_error(capsys, tmp_path, "verify", {"instance": _m2_rank3_json()}, "workers",
                        "--workers", workers)


def test_faithfulness_refuses_a_group_too_large_to_enumerate(tmp_path, capsys):
    from qhact.hopf import (
        MAX_GROUP_ORDER, group_acts_faithfully, instance_from_json, is_faithful_qls,
    )

    obj = _m2_rank3_json()
    obj["hopf"]["group"] = [100, 100, 100]
    inst = instance_from_json(obj)
    assert inst.qls.group.order() > MAX_GROUP_ORDER
    for check in (lambda: is_faithful_qls(inst.qls), lambda: group_acts_faithfully(inst)):
        with pytest.raises(InputError, match="hopf.group"):
            check()
    _assert_input_error(capsys, tmp_path, "verify", {"instance": obj, "inner_faithful": True},
                        "hopf.group")


def test_float_scalar_coefficient_is_input_error(tmp_path, capsys):
    from qhact.cyclotomic import Cyc

    assert Cyc.from_json({"level": 5, "coeffs": [1, "0", "-1/2", 0]}) == Cyc(5, [2, 0, -1, 0], 2)
    for coeffs in ([1.0000000001, 0, 0, 0], "1000"):
        with pytest.raises(InputError):
            Cyc.from_json({"level": 12, "coeffs": coeffs})
    obj = _m2_instance_json()
    obj["hopf"]["lambda"]["coeffs"][0] = 1.0000000001
    _assert_input_error(capsys, tmp_path, "verify", {"instance": obj}, "coeffs")
    job = {"target": "matrix", "N": 2, "ord_q": 5,
           "lambda": {"level": 5, "coeffs": ["0", "0", 1.0, "0"]}}
    _assert_input_error(capsys, tmp_path, "search", job, "coeffs")


def test_parallel_suite_matches_serial(tmp_path, capsys):
    job = write_job(tmp_path, "suite.json", {"criteria": [3, 11, 12]})

    def report(*extra):
        code, out, err = run_cli(capsys, "suite", "--job", job, "--json", *extra)
        assert code == 0, err
        rep = json.loads(out)
        for r in rep["results"]:
            r.pop("seconds", None)
        return rep

    serial = report()
    assert [r["id"] for r in serial["results"]] == [3, 11, 12]
    assert report("--workers", "2") == serial


def test_parallel_suite_starts_one_worker_per_criterion_at_most(tmp_path, capsys, monkeypatch):
    # the pool is a stand-in that records its size and maps in this process,
    # and each criterion a stub, so no process is started
    import concurrent.futures

    from qhact import cli

    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(cli, "_suite_worker",
                        lambda job: {"id": job[0], "name": "", "status": "pass", "detail": ""})
    job = write_job(tmp_path, "suite.json", {"criteria": [12, 3]})
    for workers in ("64", "2", "1"):
        code, out, err = run_cli(capsys, "suite", "--job", job, "--json", "--workers", workers)
        assert code == 0, err
        assert [r["id"] for r in json.loads(out)["results"]] == [3, 12]
    # --workers 1 runs the criteria serially, with no pool
    assert sizes == [2, 2]


def _random_json(rng, depth, pool=None):
    """A random value json.dumps accepts: nested dicts (keys of one kind per
    dict, as sorting needs: str, int, int or float, or bool), lists and
    tuples, empty containers, non-ASCII and control characters, nan and the
    infinities.  With a pool, each finished container joins it, and a value
    is often one already in it, so the tree shares containers at several
    depths and several times, as report trees do (hopf.ScalarJson)."""
    if pool and rng.random() < 0.3:
        return rng.choice(pool)
    chars = "aZ09 \"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\u4e2d\U0001f600"
    leaves = [
        lambda: "".join(rng.choice(chars) for _ in range(rng.randrange(6))),
        lambda: None,
        lambda: rng.random() < 0.5,
        lambda: rng.randint(-10**20, 10**20),
        lambda: rng.choice([0.0, -0.0, 1e300, -2.5e-308, float("nan"), float("inf"),
                            float("-inf"), rng.uniform(-1e6, 1e6)]),
    ]
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)()
    size = rng.randrange(4)
    kind = rng.randrange(3)
    if kind < 2:
        items = [_random_json(rng, depth - 1, pool) for _ in range(size)]
        out = items if kind == 0 else tuple(items)
    else:
        out = _random_dict(rng, depth, size, chars, pool)
    if pool is not None:
        pool.append(out)
    return out


def _random_dict(rng, depth, size, chars, pool):
    keys = rng.choice([
        lambda: "".join(rng.choice(chars) for _ in range(rng.randrange(4))),
        lambda: rng.randint(-50, 50),
        lambda: rng.choice([rng.randint(-5, 5), rng.uniform(-10, 10), float("inf")]),
        lambda: rng.random() < 0.5,
    ])
    return {keys(): _random_json(rng, depth - 1, pool) for _ in range(size)}


def test_report_text_matches_json_dumps():
    import random

    from qhact.cli import report_text

    rng = random.Random(18)
    for _ in range(3000):
        obj = _random_json(rng, 4)
        assert report_text(obj) == json.dumps(obj, indent=2, sort_keys=True), obj

    def containers(o):
        if isinstance(o, (list, tuple, dict)):
            yield o
            for item in o.values() if isinstance(o, dict) else o:
                yield from containers(item)

    shares = 0
    for _ in range(1000):
        obj = _random_json(rng, 5, [])
        ids = [id(o) for o in containers(obj)]
        shares += len(ids) - len(set(ids))
        assert report_text(obj) == json.dumps(obj, indent=2, sort_keys=True), obj
    assert shares > 1000
    leaf = {"level": 5, "coeffs": ["0", "1", "0", "0"], "as_q_power": 1}
    row = [leaf, {"a": leaf}, leaf]
    tree = {"rows": [row, [row, leaf], row], "leaf": leaf, "deep": {"x": [[row]], "y": (row, leaf)}}
    assert report_text(tree) == json.dumps(tree, indent=2, sort_keys=True)
    assert report_text({None: 1}) == json.dumps({None: 1}, indent=2, sort_keys=True)
    assert report_text({1.5: [], 2: {}}) == json.dumps({1.5: [], 2: {}}, indent=2, sort_keys=True)
    for bad in ({"a": {1, 2}}, {(1,): 2}, [object()], {1: "a", "b": 2}):
        with pytest.raises(TypeError) as want:
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError) as got:
            report_text(bad)
        assert str(got.value) == str(want.value)


def test_parser_calls_share_no_state(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; each call still gets only its
    # own flags, and the usage and the exit-2 contract are unchanged
    from qhact import cli

    seen = []

    def recording(job, opts):
        seen.append(opts)
        return {}, 0

    monkeypatch.setitem(cli.COMMANDS, "verify", recording)
    job = write_job(tmp_path, "v.json", {})
    assert run_cli(capsys, "verify", "--job", job, "--json", "--degree-bound", "3", "--level", "5")[0] == 0
    assert run_cli(capsys, "verify", "--job", job)[0] == 0
    first, second = seen
    assert (first.degree_bound, first.level, first.json) == (3, 5, True)
    assert (second.degree_bound, second.level, second.json, second.workers) == (None, None, False, 1)
    assert first is not second and cli._parser() is cli._parser()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--degree-bound", "x"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: qhact [-h] [--job JOB] [--json]")


@pytest.mark.parametrize("fmt", [["--json"], []])
def test_closed_stdout_exits_141_without_a_traceback(tmp_path, fmt):
    """A report written to a pipe whose reader is gone: the write fails
    with EPIPE, and the CLI exits 141 (128 + SIGPIPE) rather than 1, which
    means a failed check, with nothing on stderr.  The read end is closed
    before the CLI starts, so the first write fails every time."""
    import os
    import subprocess
    import sys

    import qhact

    src = os.path.dirname(os.path.dirname(os.path.abspath(qhact.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    job = write_job(tmp_path, "pl.json", {"target": "plane", "k": 3, "m": 3})
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qhact.cli", "search", "--job", job, *fmt],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 141
    assert proc.stderr == b""


# the report builders as they were before they shared scalar objects, kept
# as oracles: one fresh JSON object per entry


def _scalar_json_per_entry(c, q=None):
    from qhact.cyclotomic import as_q_power

    obj = c.to_json()
    if q is not None:
        e = as_q_power(c, q)
        if e is not None:
            obj["as_q_power"] = e
    return obj


def _family_json_per_entry(fam, q=None):
    return {
        "tag": fam.tag,
        "lambda": _scalar_json_per_entry(fam.lam, q),
        "grouplike": {
            "perm": list(fam.g.perm),
            "alpha": [_scalar_json_per_entry(s, q) for s in fam.g.scalars],
        },
        "dimension": fam.dim,
        "basis": [
            [[_scalar_json_per_entry(e, q) for e in row] for row in x.eta] for x in fam.basis
        ],
    }


def _instance_json_per_entry(inst):
    from qhact.ncalg import presentation_to_json

    qls = inst.qls
    if qls.group.rank == 1 and qls.theta == 1 and qls.gs[0] == (1,):
        hopf = {
            "type": "taft",
            "n": qls.group.orders[0],
            "m": qls.m(0),
            "lambda": inst.lam(0).to_json(),
            "gamma": inst.gammas[0].to_json(),
        }
    else:
        hopf = {
            "type": "bosonization",
            "group": list(qls.group.orders),
            "g": [list(g) for g in qls.gs],
            "chi": [list(c.exps) for c in qls.chis],
            "gamma": [g.to_json() for g in inst.gammas],
        }
    return {
        "presentation": presentation_to_json(inst.pres),
        "hopf": hopf,
        "grouplikes": [
            {"perm": list(g.perm), "alpha": [s.to_json() for s in g.scalars]}
            for g in inst.gen_actions
        ],
        "skews": [
            {"eta": [[e.to_json() for e in row] for row in x.eta], "grouplike": i}
            for i, x in enumerate(inst.skews)
        ],
    }


def _containers(o):
    if isinstance(o, (list, tuple, dict)):
        yield o
        for item in o.values() if isinstance(o, dict) else o:
            yield from _containers(item)


def test_shared_report_objects_match_the_per_entry_builders():
    """json.dumps of the shared-object builders equals that of the per-entry
    ones: every family of O_q(M_2) and O_q(M_3) as one search report and as
    instances, the max-rank witnesses of O_q(M_3) and O_q(M_4) with their
    character tables, and the affine t = 3 search at order 5 (no q).  The
    M_4 witness's tree holds far fewer distinct objects than entries."""
    from qhact.cli import _family_json
    from qhact.classify import all_matrix_families, enumerate_taft_affine, generic_affine_p, max_rank
    from qhact.hopf import ScalarJson

    def same(got, want):
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    q = zeta(5)
    cases = [(all_matrix_families(N, q), q) for N in (2, 3)]
    cases.append((enumerate_taft_affine(generic_affine_p(3, 5), 5), None))
    for fams, ref in cases:
        enc = ScalarJson(ref)
        same([_family_json(f, enc) for f in fams], [_family_json_per_entry(f, ref) for f in fams])
        if ref is not None:
            for f in fams:
                same(instance_to_json(f.instance()), _instance_json_per_entry(f.instance()))
    for N, theta in ((3, 4), (4, 6)):
        res = max_rank(all_matrix_families(N, q), q)
        w = res.witness
        assert res.theta == theta
        obj = instance_to_json(w)
        same(obj, _instance_json_per_entry(w))
        enc = ScalarJson(q)
        chars = [[chi.eval(g, w.level) for g in w.qls.gs] for chi in w.qls.chis]
        same([[enc.scalar(c) for c in row] for row in chars],
             [[_scalar_json_per_entry(c, q) for c in row] for row in chars])
    etas = [rec["eta"] for rec in obj["skews"]]
    entries = [e for eta in etas for row in eta for e in row]
    rows = [row for eta in etas for row in eta]
    assert len(entries) > 1000 and len({id(e) for e in entries}) <= 10
    assert len({id(r) for r in rows}) < len(rows) // 4


@pytest.mark.parametrize("build", [_m2_instance_json, _m2_rank3_json])
def test_instance_json_hopf_fields_share_no_object(build):
    """instance_to_json shares scalar dicts and eta rows only: the hopf
    fields (lambda, gamma), the alpha lists and every coefficient list of
    a fresh dict are objects of their own, so an edit to one changes that
    field alone."""
    obj = build()
    etas = [rec["eta"] for rec in obj["skews"]]
    shared = {id(o) for eta in etas for o in _containers(eta)} - {id(eta) for eta in etas}
    hopf = obj["hopf"]
    fresh = [o for key in ("lambda", "gamma") if key in hopf for o in _containers(hopf[key])]
    fresh += [rec["alpha"] for rec in obj["grouplikes"]]
    assert fresh and not {id(o) for o in fresh} & shared


# a scalar equal under == and hash to a valid one read before it, but not
# a JSON integer where one is needed: the decode memo must not take it for
# the earlier one
MEMO_KEY_CASES = [
    pytest.param(("skews", 0, "eta", 0, 1), {"level": 5, "coeffs": [1.0, 0, 0, 0]}, "coeffs",
                 id="float-coefficient"),
    pytest.param(("skews", 0, "eta", 0, 1), {"level": 5, "coeffs": [True, 0, 0, 0]}, "coeffs",
                 id="true-coefficient"),
    pytest.param(("skews", 0, "eta", 0, 1), {"level": 5.0, "coeffs": [1, 0, 0, 0]}, "level",
                 id="float-level"),
    pytest.param(("skews", 0, "eta", 0, 1), {"level": 5, "coeffs": [[1], 0, 0, 0]}, "coeffs",
                 id="list-coefficient"),
    pytest.param(("hopf", "lambda"), {"level": 5.0, "coeffs": [1, 0, 0, 0]}, "level",
                 id="float-level-lambda"),
]


@pytest.mark.parametrize("path,bad,field", MEMO_KEY_CASES)
def test_decode_memo_keeps_json_types_apart(tmp_path, capsys, path, bad, field):
    obj = _m2_instance_json()
    _set(obj, ("grouplikes", 0, "alpha", 0), {"level": 5, "coeffs": [1, 0, 0, 0]})
    _set(obj, ("skews", 0, "eta", 0, 0), {"level": 5, "coeffs": [1, 0, 0, 0]})
    _set(obj, path, bad)
    _assert_input_error(capsys, tmp_path, "verify", {"instance": obj}, field)
