import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import simcores
from simcores.cli import main
from simcores.exact import binomial, catalan_number
from simcores.posets import build_gap_poset, multi_catalan


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_rect(capsys):
    code, out, _ = run_cli(capsys, "count", "rect", "--s", "3", "--t", "5")
    assert code == 0 and out.strip() == "7"


def test_count_multi_catalan(capsys):
    code, out, _ = run_cli(capsys, "count", "multi-catalan", "--s", "10", "--p", "2")
    assert code == 0 and out.strip() == str(multi_catalan(10, 2))


def test_domain_errors_exit_1_without_traceback(capsys):
    code, out, err = run_cli(capsys, "count", "multi-catalan", "--s", "5", "--p", "0")
    assert code == 1 and out == "" and "--p: must be >= 1, got 0" in err
    # listing and counting reject n <= 0 alike
    for mode in ("--list", "--count-only"):
        code, out, err = run_cli(capsys, "paths", "gd", "--n", "0", "--k", "2", mode)
        assert code == 1 and out == "" and "--n: must be >= 1, got 0" in err


def test_poset_plain_and_json(capsys):
    code, out, _ = run_cli(capsys, "poset", "--gens", "2,3")
    assert code == 0 and "gaps (1): 1" in out
    code, out, _ = run_cli(capsys, "poset", "--gens", "5,7,13", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["gaps"] == [1, 2, 3, 4, 6, 8, 9, 11, 16]
    assert [16, 3] in data["covers"]


def test_poset_dot(capsys):
    code, out, _ = run_cli(capsys, "poset", "--gens", "5,7", "--format", "dot")
    assert code == 0 and out.startswith("digraph")
    # the Hasse diagram: 9 = 4 + 5, so 11 covers 7 and 7 covers 2, but 11
    # does not cover 2
    code, out, _ = run_cli(capsys, "poset", "--gens", "4,5,9", "--format", "dot")
    lines = out.splitlines()
    assert code == 0 and "  7 -> 11;" in lines and "  2 -> 7;" in lines
    assert "  2 -> 11;" not in lines
    assert_usage_error(capsys, "poset", "--gens", "4,5,9", "--reduce",
                       message="unrecognized arguments: --reduce")


def test_poset_gcd_error(capsys):
    code, _, err = run_cli(capsys, "poset", "--gens", "4,6")
    assert code == 1
    assert "divisible by 2" in err


def test_usage_errors_exit_1(capsys):
    code, _, err = run_cli(capsys, "poset")
    assert code == 1
    code, _, err = run_cli(capsys, "poset", "--gens", "five")
    assert code == 1
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 1
    code, _, _ = run_cli(capsys)
    assert code == 1
    for argv, flag in ((("paths", "rect", "--s", "0", "--t", "5"), "--s"),
                       (("paths", "rect", "--s", "3", "--t", "-2"), "--t"),
                       (("count", "rect", "--s", "-1", "--t", "5"), "--s"),
                       (("count", "rect", "--s", "3", "--t", "0"), "--t"),
                       (("paths", "gd", "--n", "3", "--k", "0"), "--k"),
                       (("count", "multi-catalan", "--s", "3", "--p", "-4"), "--p")):
        value = argv[argv.index(flag) + 1]
        assert_usage_error(capsys, *argv, message=f"{flag}: must be >= 1, got {value}")
    for which in ("symmetry", "conjecture", "all"):
        assert_usage_error(capsys, "verify", which, "--min-s", "1", message="--min-s: must be >= 3, got 1")


def test_ideals_count_only(capsys):
    code, out, _ = run_cli(capsys, "ideals", "--gens", "5,7", "--count-only")
    assert code == 0 and out.strip() == "66"


def test_ideals_list_plain(capsys):
    code, out, _ = run_cli(capsys, "ideals", "--gens", "2,3", "--list")
    assert code == 0
    assert "2 lower ideals" in out
    assert "{}" in out and "{1}" in out


def test_cores_list(capsys):
    code, out, _ = run_cli(capsys, "cores", "--gens", "2,3", "--list")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "2 simultaneous cores"
    assert "()" in lines and "(1)" in lines


def test_cores_count_and_total_size(capsys):
    code, out, _ = run_cli(capsys, "cores", "--gens", "5,7,13", "--count-only")
    expected = build_gap_poset((5, 7, 13)).count_lower_ideals()
    assert code == 0 and out.strip() == str(expected)
    code, out, _ = run_cli(capsys, "cores", "--gens", "4,5,6", "--total-size")
    assert code == 0 and "total size: 25" in out


def test_cores_json(capsys):
    code, out, _ = run_cli(capsys, "cores", "--gens", "5,7,13", "--list",
                           "--total-size", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [8, 4, 3, 1] in data["cores"]
    assert data["count"] == str(len(data["cores"]))
    assert data["total_size"].isdigit()


def test_paths_rect_list_and_count(capsys):
    code, out, _ = run_cli(capsys, "paths", "rect", "--s", "3", "--t", "5", "--count-only")
    assert code == 0 and out.strip() == "7"
    code, out, _ = run_cli(capsys, "paths", "rect", "--s", "3", "--t", "5", "--list")
    assert code == 0 and out.startswith("7 paths")


def test_paths_gd_json(capsys):
    code, out, _ = run_cli(capsys, "paths", "gd", "--n", "2", "--k", "3",
                           "--list", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == "2"
    assert ["D2"] in data["paths"] and ["D1", "D1"] in data["paths"]


def test_paths_coprimality_error(capsys):
    code, _, err = run_cli(capsys, "paths", "rect", "--s", "4", "--t", "6")
    assert code == 1 and "coprime" in err


def test_roundtrip_ideals(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "ideals", "--gens", "5,7", "--list", "--format", "json")
    assert code == 0
    recorded = tmp_path / "ideals.json"
    recorded.write_text(out)
    code, out, _ = run_cli(capsys, "ideals", "--gens", "5,7", "--from-file", str(recorded))
    assert code == 0 and "matches" in out
    data = json.loads(recorded.read_text())
    data["ideals"][3] = [999]
    recorded.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "ideals", "--gens", "5,7", "--from-file", str(recorded))
    assert code == 2 and "NOT" in err


def test_roundtrip_cores_and_paths(capsys, tmp_path):
    for argv, fname in (
        (("cores", "--gens", "5,7,13", "--list"), "cores.json"),
        (("paths", "rect", "--s", "3", "--t", "5", "--list"), "rect.json"),
        (("paths", "gd", "--n", "4", "--k", "3", "--list"), "gd.json"),
    ):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        recorded = tmp_path / fname
        recorded.write_text(out)
        code, out, _ = run_cli(capsys, *argv, "--from-file", str(recorded))
        assert code == 0 and "matches" in out


def test_svg_writing(capsys, tmp_path):
    target = tmp_path / "paths.svg"
    code, out, _ = run_cli(capsys, "paths", "rect", "--s", "3", "--t", "5",
                           "--svg", str(target))
    assert code == 0 and "wrote 7 paths" in out
    assert target.read_text().startswith("<svg")


def test_qdet(capsys):
    code, out, _ = run_cli(capsys, "qdet", "--shape", "2,1")
    assert code == 0
    assert "1 + q + 2*q^2 + q^3" in out
    code, out, _ = run_cli(capsys, "qdet", "--shape", "2,1", "--format", "json")
    data = json.loads(out)
    assert data["coefficients"] == ["1", "1", "2", "1"]
    assert data["shape"] == [2, 1]


def test_qdet_rejects_bad_shape(capsys):
    code, _, _ = run_cli(capsys, "qdet", "--shape", "1,2")
    assert code == 1


def test_diagram(capsys):
    code, out, _ = run_cli(capsys, "diagram", "--shape", "6,3,1,1", "--hooks")
    assert code == 0
    assert out.splitlines()[-1].split() == ["9", "6", "5", "3", "2", "1"]


def test_verify_conjecture(capsys):
    code, out, _ = run_cli(capsys, "verify", "conjecture", "--max-s", "4")
    assert code == 0
    assert "lhs=5 rhs=5" in out and "lhs=25 rhs=25" in out


def test_verify_symmetry_and_equinumerous(capsys):
    code, out, _ = run_cli(capsys, "verify", "symmetry", "--max-s", "9")
    assert code == 0 and out.startswith("PASS")
    code, out, _ = run_cli(capsys, "verify", "equinumerous", "--max-sum", "8",
                           "--max-path-n", "4", "--max-k", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["passed"] is True


def test_verify_exit_code_2_on_counterexample(capsys, monkeypatch):
    import simcores.verify as verify_mod

    monkeypatch.setattr(verify_mod, "catalan_identity", lambda n: 1)
    code, out, _ = run_cli(capsys, "verify", "identity", "--max-n", "5")
    assert code == 2
    assert out.startswith("FAIL")
    assert "first counterexample" in out


def test_output_is_deterministic(capsys):
    first = run_cli(capsys, "ideals", "--gens", "5,7", "--list", "--format", "json")
    second = run_cli(capsys, "ideals", "--gens", "5,7", "--list", "--format", "json")
    assert first == second
    a = run_cli(capsys, "poset", "--gens", "5,7,13", "--format", "dot")
    b = run_cli(capsys, "poset", "--gens", "5,7,13", "--format", "dot")
    assert a == b


def test_verify_jobs_flag(capsys):
    def without_duration(result):
        code, out, err = result
        return code, re.sub(r" in \d+\.\d\ds$", " in <duration>", out, flags=re.M), err

    seq = run_cli(capsys, "verify", "gf", "--max-p", "2", "--terms", "10")
    par = run_cli(capsys, "verify", "gf", "--max-p", "2", "--terms", "10", "--jobs", "3")
    # the statement, range, counts and notes are compared; the duration varies
    assert " in <duration>\n" in without_duration(seq)[1]
    assert without_duration(seq) == without_duration(par)


def test_verify_equinumerous_json_is_the_same_at_any_jobs(capsys):
    # the one statement whose instances share work across the pool's threads
    argv = ["verify", "equinumerous", "--max-sum", "12", "--max-path-n", "7", "--max-k", "3",
            "--format", "json"]
    results = []
    for jobs in ("1", "2"):
        code, out, err = run_cli(capsys, *argv, "--jobs", jobs)
        results.append((code, re.sub(r'"duration_seconds": [0-9.e-]+', '"duration_seconds": 0', out), err))
    assert results[0][0] == 0 and json.loads(results[0][1])[0]["instances"] == 44
    assert results[0] == results[1]


def test_verify_rejects_non_positive_jobs(capsys):
    for jobs in ("0", "-3"):
        code, out, err = run_cli(capsys, "verify", "gf", "--max-p", "2", "--jobs", jobs)
        assert code == 1 and out == ""
        assert err.startswith("usage:") and "--jobs: must be >= 1" in err


def test_deep_posets_and_paths_do_not_hit_the_recursion_limit(capsys):
    assert run_cli(capsys, "paths", "rect", "--s", "1", "--t", "1200") == (0, "1 paths\n", "")
    assert run_cli(capsys, "ideals", "--gens", "2,2001") == (0, "1001 lower ideals\n", "")
    assert run_cli(capsys, "cores", "--gens", "2,2001", "--count-only") == (0, "1001\n", "")
    assert run_cli(capsys, "count", "multi-catalan", "--s", "600", "--p", "1") == (
        0, f"{catalan_number(600)}\n", "")
    motzkin_600 = sum(binomial(600, 2 * k) * catalan_number(k) for k in range(301))
    assert run_cli(capsys, "paths", "gd", "--n", "600", "--k", "2", "--count-only") == (
        0, f"{motzkin_600}\n", "")


def test_cores_count_only_counts_without_enumerating(capsys, monkeypatch):
    from simcores.posets import GapPoset

    listed = run_cli(capsys, "cores", "--gens", "5,7,13")[1]
    listed_json = run_cli(capsys, "cores", "--gens", "5,7,13", "--format", "json")[1]

    def no_enumeration(self, max_items=None):
        raise AssertionError("cores --count-only enumerated the ideals")

    monkeypatch.setattr(GapPoset, "iter_lower_ideals", no_enumeration)
    monkeypatch.setattr(GapPoset, "_walk_lower_ideals", no_enumeration)
    code, out, _ = run_cli(capsys, "cores", "--gens", "5,7,13", "--count-only")
    assert code == 0 and listed == f"{out.strip()} simultaneous cores\n"
    assert run_cli(capsys, "cores", "--gens", "5,7,13", "--count-only", "--format", "json") == (
        0, listed_json, "")


def test_cores_count_only_max_items_caps_cores(capsys):
    code, out, err = run_cli(capsys, "cores", "--gens", "5,7", "--count-only", "--max-items", "65")
    assert code == 1 and out == ""
    assert "lower ideals of P_[5, 7] exceeds the cap of 65" in err
    assert run_cli(capsys, "cores", "--gens", "5,7", "--count-only", "--max-items", "66") == (0, "66\n", "")
    # --list does not change a plain count; --total-size adds the total size
    assert run_cli(capsys, "cores", "--gens", "5,7", "--count-only", "--list") == (0, "66\n", "")
    assert run_cli(capsys, "cores", "--gens", "5,7", "--count-only", "--list", "--total-size") == (
        0, "66\ntotal size: 858\n", "")
    # the cap applies to the count with --total-size too
    code, out, err = run_cli(capsys, "cores", "--gens", "5,7", "--count-only", "--total-size",
                             "--max-items", "65")
    assert code == 1 and out == "" and "lower ideals of P_[5, 7] exceeds the cap of 65" in err


@pytest.mark.parametrize("gens", ["5,7", "12,13,14"])
def test_cores_count_only_total_size_matches_the_listing_without_enumerating(
        capsys, monkeypatch, gens):
    from simcores.posets import GapPoset

    listed = run_cli(capsys, "cores", "--gens", gens, "--total-size")[1].splitlines()
    listed_json = json.loads(run_cli(capsys, "cores", "--gens", gens, "--total-size",
                                     "--format", "json")[1])
    assert listed_json["total_size"] == {"5,7": "858", "12,13,14": "883883"}[gens]

    def no_enumeration(self, max_items=None):
        raise AssertionError("cores --count-only --total-size enumerated the ideals")

    monkeypatch.setattr(GapPoset, "iter_lower_ideals", no_enumeration)
    monkeypatch.setattr(GapPoset, "_walk_lower_ideals", no_enumeration)
    code, out, err = run_cli(capsys, "cores", "--gens", gens, "--count-only", "--total-size")
    count, total = out.splitlines()
    assert code == 0 and err == ""
    assert listed == [f"{count} simultaneous cores", total]
    assert total == f"total size: {listed_json['total_size']}"
    assert run_cli(capsys, "cores", "--gens", gens, "--count-only", "--total-size",
                   "--format", "json") == (0, json.dumps(listed_json) + "\n", "")


def test_count_only_max_items_caps_the_count(capsys):
    # one rule for every --count-only command and format: fail once the count exceeds N
    for argv, count, what in (
            (("ideals", "--gens", "5,7"), 66, "lower ideals of P_[5, 7]"),
            (("ideals", "--gens", "5,7", "--format", "json"), 66, "lower ideals of P_[5, 7]"),
            (("cores", "--gens", "5,7", "--format", "json"), 66, "lower ideals of P_[5, 7]"),
            (("paths", "rect", "--s", "3", "--t", "5"), 7, "(3,5) rectangle paths"),
            (("paths", "gd", "--n", "6", "--k", "2", "--format", "json"), multi_catalan(6, 2),
             "generalized (6,2) paths")):
        cap = str(count - 1)
        assert run_cli(capsys, *argv, "--count-only", "--max-items", cap) == (
            1, "", f"simcores: {what} exceeds the cap of {cap}; raise the cap to proceed\n")
        code, out, err = run_cli(capsys, *argv, "--count-only", "--max-items", str(count))
        assert code == 0 and err == "" and str(count) in out
    # --list does not change a JSON count either; --total-size adds the total size
    assert run_cli(capsys, "cores", "--gens", "5,7", "--count-only", "--list",
                   "--format", "json") == (0, '{"generators": [5, 7], "count": "66"}\n', "")
    assert run_cli(capsys, "cores", "--gens", "5,7", "--count-only", "--list", "--total-size",
                   "--format", "json") == (
        0, '{"generators": [5, 7], "count": "66", "total_size": "858"}\n', "")


def test_count_only_max_items_is_the_dp_state_cap_too(capsys):
    # the residue DP holds at most 5 states for the 66 (5,7)-cores: a cap
    # below 5 stops the DP, one up to 65 fails on the count, and 66 counts
    for argv in (("ideals", "--gens", "5,7", "--count-only"),
                 ("cores", "--gens", "5,7", "--count-only", "--total-size")):
        uncapped = run_cli(capsys, *argv)
        assert uncapped[0] == 0 and uncapped[1].startswith("66\n")
        for cap in range(1, 66):
            what = "ideal-counting state space for" if cap < 5 else "lower ideals of"
            assert run_cli(capsys, *argv, "--max-items", str(cap)) == (
                1, "", f"simcores: {what} P_[5, 7] exceeds the cap of {cap}; "
                       "raise the cap to proceed\n"), (argv, cap)
        assert run_cli(capsys, *argv, "--max-items", "66") == uncapped


def test_a_path_listing_past_the_cap_fails_before_any_walk(capsys, monkeypatch):
    from simcores import paths as paths_mod

    for argv, count, what in (
            (("paths", "gd", "--n", "6", "--k", "2"), multi_catalan(6, 2), "generalized (6,2) paths"),
            (("paths", "rect", "--s", "5", "--t", "7"), 66, "(5,7) rectangle paths")):
        listed = run_cli(capsys, *argv, "--list", "--max-items", str(count))
        assert listed[0] == 0 and listed[1].startswith(f"{count} paths\n")

        def no_walk(*args, **kwargs):
            raise AssertionError("a listing past the cap walked its paths")

        monkeypatch.setattr(paths_mod, "_lattice_walks", no_walk)
        cap = str(count - 1)
        for extra in ((), ("--format", "json"), ("--svg", "unused.svg")):
            assert run_cli(capsys, *argv, "--list", "--max-items", cap, *extra) == (
                1, "", f"simcores: {what} exceeds the cap of {cap}; raise the cap to proceed\n")
        monkeypatch.undo()
    monkeypatch.setattr(paths_mod, "_lattice_walks", no_walk)
    assert run_cli(capsys, "paths", "gd", "--n", "200", "--k", "3", "--list") == (
        1, "", "simcores: generalized (200,3) paths exceeds the cap of 1000000; "
               "raise the cap to proceed\n")
    assert run_cli(capsys, "paths", "rect", "--s", "13", "--t", "17", "--list") == (
        1, "", "simcores: (13,17) rectangle paths exceeds the cap of 1000000; "
               "raise the cap to proceed\n")


def test_an_ideal_or_core_listing_past_the_cap_fails_before_any_walk(capsys, monkeypatch):
    from simcores.posets import GapPoset

    for command in ("ideals", "cores"):
        listed = run_cli(capsys, command, "--gens", "5,7", "--list", "--max-items", "66")
        assert listed[0] == 0 and listed[1].startswith("66 ")

    def no_walk(self):
        raise AssertionError("a listing past the cap walked its ideals")

    monkeypatch.setattr(GapPoset, "_walk_lower_ideals", no_walk)
    for command in ("ideals", "cores"):
        for extra in ((), ("--format", "json")):
            assert run_cli(capsys, command, "--gens", "5,7", "--list", "--max-items", "65",
                           *extra) == (
                1, "", "simcores: lower ideals of P_[5, 7] exceeds the cap of 65; "
                       "raise the cap to proceed\n")
        assert run_cli(capsys, command, "--gens", "13,17", "--list") == (
            1, "", "simcores: lower ideals of P_[13, 17] exceeds the cap of 1000000; "
                   "raise the cap to proceed\n")
    # a count that needs more states than the cap fails on the states, on
    # either route
    for route in ("--list", "--count-only"):
        assert run_cli(capsys, "ideals", "--gens", "100,150,199", route, "--max-items", "5") == (
            1, "", "simcores: ideal-counting state space for P_[100, 150, 199] exceeds the cap "
                   "of 5; raise the cap to proceed\n")


def test_running_out_of_memory_exits_1_with_one_line(capsys, monkeypatch):
    from simcores import cli

    def out_of_memory(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_cores", out_of_memory)
    assert run_cli(capsys, "cores", "--gens", "100000,100001", "--count-only") == (
        1, "", "simcores: out of memory\n")


def test_a_generator_that_fails_to_close_for_want_of_memory_adds_no_line(capsys, monkeypatch):
    from simcores import cli

    def closing_fails_with(exc):
        def gen():
            try:
                yield
            finally:
                raise exc
        g = gen()
        next(g)
        return g

    def out_of_memory(args):
        g = closing_fails_with(MemoryError())  # noqa: F841
        raise MemoryError  # g closes once main lets go of this frame

    unraised = []
    monkeypatch.setattr(sys, "unraisablehook", unraised.append)
    monkeypatch.setattr(cli, "cmd_cores", out_of_memory)
    assert run_cli(capsys, "cores", "--gens", "5,7", "--count-only") == (
        1, "", "simcores: out of memory\n")
    assert unraised == [] and sys.unraisablehook == unraised.append

    # any other failure to close still reaches the hook that was in place
    def leaves_a_value_error(args):
        closing_fails_with(ValueError("from close"))
        return 0

    monkeypatch.setattr(cli, "cmd_cores", leaves_a_value_error)
    assert run_cli(capsys, "cores", "--gens", "5,7", "--count-only") == (0, "", "")
    assert [str(u.exc_value) for u in unraised] == ["from close"]


def test_a_system_error_is_one_line_and_not_called_out_of_memory(capsys, monkeypatch):
    from simcores import cli

    def lost_exception(args):
        raise SystemError("error return without exception set")

    monkeypatch.setattr(cli, "cmd_cores", lost_exception)
    assert run_cli(capsys, "cores", "--gens", "5,7", "--count-only") == (
        1, "", "simcores: interpreter error: SystemError: error return without exception set\n")


def assert_usage_error(capsys, *argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage:") and message in err


def test_count_multi_catalan_rejects_negative_s(capsys):
    assert_usage_error(capsys, "count", "multi-catalan", "--s", "-5", "--p", "2",
                       message="--s: must be >= 0, got -5")
    assert run_cli(capsys, "count", "multi-catalan", "--s", "0", "--p", "2") == (0, "1\n", "")


def test_paths_gd_rejects_non_positive_n(capsys):
    for n in ("0", "-5"):
        assert_usage_error(capsys, "paths", "gd", "--n", n, "--k", "2", "--count-only",
                           message=f"--n: must be >= 1, got {n}")


def test_max_items_must_be_positive(capsys):
    for argv in (("ideals", "--gens", "5,7"), ("cores", "--gens", "5,7"),
                 ("paths", "rect", "--s", "3", "--t", "5"), ("paths", "gd", "--n", "3", "--k", "2")):
        for cap in ("0", "-1"):
            assert_usage_error(capsys, *argv, "--max-items", cap,
                               message=f"--max-items: must be >= 1, got {cap}")


def test_missing_from_file_exits_1_without_traceback(capsys, monkeypatch, tmp_path):
    import simcores.cli as cli_mod
    from simcores.posets import GapPoset

    # every listing command reads --from-file before it enumerates anything
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated before reading --from-file")

    monkeypatch.setattr(GapPoset, "iter_lower_ideals", no_enumeration)
    monkeypatch.setattr(GapPoset, "_walk_lower_ideals", no_enumeration)
    monkeypatch.setattr(cli_mod, "enumerate_rect_paths", no_enumeration)
    monkeypatch.setattr(cli_mod, "enumerate_gd", no_enumeration)
    missing = str(tmp_path / "missing.json")
    for argv in (("ideals", "--gens", "5,7"), ("cores", "--gens", "5,7"),
                 ("paths", "rect", "--s", "3", "--t", "5"), ("paths", "gd", "--n", "4", "--k", "3")):
        code, out, err = run_cli(capsys, *argv, "--from-file", missing)
        assert code == 1 and out == ""
        assert err.startswith("simcores:") and "missing.json" in err


def test_an_over_nested_from_file_is_one_line_and_exit_1(tmp_path):
    # json.load recurses once per bracket, so this file passes the recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    src = str(Path(simcores.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "simcores", "cores", "--gens", "2,3",
                           "--from-file", str(deep)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1 and done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr == f"simcores: {deep}: JSON nested too deeply to read\n"


def test_labels_is_a_gd_only_flag(capsys, tmp_path):
    target = tmp_path / "gd.svg"
    code, out, _ = run_cli(capsys, "paths", "gd", "--n", "4", "--k", "3", "--svg", str(target), "--labels")
    assert code == 0 and out == f"wrote 8 paths to {target}\n"
    assert_usage_error(capsys, "paths", "rect", "--s", "3", "--t", "5", "--svg", str(tmp_path / "r.svg"),
                       "--labels", message="unrecognized arguments: --labels")


def test_conjecture_strategy_mismatch_is_a_failure(capsys, monkeypatch):
    import simcores.verify as verify_mod

    lhs, _ = verify_mod.conjecture_total_size(5)
    monkeypatch.setattr(verify_mod, "gd_size_totals", lambda n, k: (multi_catalan(n, k), -1))
    code, out, _ = run_cli(capsys, "verify", "conjecture", "--min-s", "5", "--max-s", "5")
    assert code == 2 and out.startswith("FAIL")
    assert f"first counterexample: s=5: the path DP and the residue DP disagree (-1 vs {lhs})" in out


def test_conjecture_path_enumeration_mismatch_is_a_failure(capsys, monkeypatch):
    import simcores.verify as verify_mod

    lhs, _ = verify_mod.conjecture_total_size(5)
    monkeypatch.setattr(verify_mod, "total_core_size_via_paths", lambda s: lhs + 1)
    code, out, _ = run_cli(capsys, "verify", "conjecture", "--min-s", "5", "--max-s", "5")
    assert code == 2 and out.startswith("FAIL")
    assert f"s=5: the path DP and path enumeration disagree ({lhs} vs {lhs + 1})" in out


def test_conjecture_check_builds_no_core_past_its_oracle_ranges(capsys, monkeypatch):
    import simcores.paths as paths_mod
    import simcores.posets as posets_mod
    import simcores.verify as verify_mod

    def refuse(*args, **kwargs):
        raise AssertionError("the conjecture check enumerated objects")

    monkeypatch.setattr(posets_mod.GapPoset, "iter_lower_ideals", refuse)
    monkeypatch.setattr(posets_mod.GapPoset, "_walk_lower_ideals", refuse)
    monkeypatch.setattr(paths_mod, "enumerate_gd", refuse)
    monkeypatch.setattr(verify_mod, "enumerate_gd", refuse)
    code, out, _ = run_cli(capsys, "verify", "conjecture", "--min-s", "13", "--max-s", "16")
    assert code == 0 and out.startswith("PASS total-size conjecture [s in [13, 16]] 4 instances")
    monkeypatch.setattr(posets_mod.GapPoset, "core_size_totals", refuse)
    code, out, _ = run_cli(capsys, "verify", "conjecture", "--min-s", "17", "--max-s", "40")
    assert code == 0 and out.startswith("PASS total-size conjecture [s in [17, 40]] 24 instances")


def test_counts_past_the_int_to_str_digit_limit_print(capsys):
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(4300)  # the interpreter default
    code, out, err = run_cli(capsys, "count", "rect", "--s", "8000", "--t", "8001")
    assert code == 0 and err == ""
    assert out == f"{math.comb(16001, 8000) // 16001}\n"


def test_verify_range_selecting_no_instances_exits_1(capsys):
    for argv, what in ((("motzkin", "--max-s", "-3"), "Motzkin sum identity"),
                       (("conjecture", "--min-s", "5", "--max-s", "4"), "total-size conjecture"),
                       (("popoviciu", "--max-t", "1"), "two-generator counting")):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"simcores: {what}: the range (") and "selects no instances" in err
    # an explicit --max-s 0 is a range, not the default
    assert run_cli(capsys, "verify", "motzkin", "--max-s", "0")[1].startswith(
        "PASS Motzkin sum identity [s <= 0] 1 instances")


def test_verify_all_applies_the_range_flags(capsys):
    code, out, err = run_cli(capsys, "verify", "all", "--min-s", "4", "--max-s", "5", "--max-t", "3",
                             "--max-n", "4", "--max-p", "1", "--terms", "3", "--max-sum", "5",
                             "--max-path-n", "2", "--max-k", "1")
    assert code == 0 and err == ""
    headers = [line.split(" instances in ")[0] for line in out.splitlines() if line.startswith("PASS")]
    assert headers == [
        "PASS twin-gap symmetry [odd s in [4, 5]] 1",
        "PASS two-generator counting [coprime s < t <= 3, m <= st] 3",
        "PASS alternating Catalan identity [identity n in [2, 4]; Hessenberg determinant n <= 4] 7",
        "PASS Motzkin sum identity [s <= 5] 6",
        "PASS closed generating function [p <= 1, 3 terms] 1",
        "PASS total-size conjecture [s in [4, 5]] 2",
        "PASS equinumerosity [pairs with s+t <= 5; consecutive n <= 2, k <= 1] 7",
    ]


def test_verify_identity_caps_the_hessenberg_range_at_12(capsys):
    # --max-n narrows the determinant half (see the verify all pin) but never widens it past 12
    for argv, max_n in (((), 30), (("--max-n", "13"), 13)):
        code, out, _ = run_cli(capsys, "verify", "identity", *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)[0]["tested"] == f"identity n in [2, {max_n}]; Hessenberg determinant n <= 12"


def test_verify_range_flags_must_be_positive(capsys):
    for flag in ("--max-t", "--max-p", "--terms", "--max-sum", "--max-path-n", "--max-k"):
        assert_usage_error(capsys, "verify", "all", flag, "0", message=f"{flag}: must be >= 1, got 0")
    assert_usage_error(capsys, "verify", "identity", "--max-n", "1", message="--max-n: must be >= 2, got 1")


OPTIMIZED_INVARIANT_SCRIPT = """
import sys
assert False  # skipped: this interpreter runs with -O
import simcores.paths as paths
import simcores.verify as verify
from simcores.cli import main

real_mask = verify.semigroup_gap_mask

# 2 is a generator of (2, 3); calling it a gap moves the largest gap from 1 to 2
verify.semigroup_gap_mask = lambda gens: real_mask(gens) | (1 << 2 if tuple(gens) == (2, 3) else 0)
popoviciu_code = main(["verify", "popoviciu", "--max-t", "5"])
paths.binomial = lambda n, k: 1
rect_code = main(["count", "rect", "--s", "3", "--t", "5"])
print(popoviciu_code, rect_code)
"""


def test_invariants_stay_checked_under_optimize():
    src = str(Path(simcores.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_INVARIANT_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("FAIL two-generator counting")
    assert "invariant failed: sieve says largest gap 2, formula 1" in lines[1]
    assert lines[-1] == "2 2"
    assert done.stderr == (
        "simcores: internal invariant failed: cycle-lemma division must be exact for coprime sides\n")


def _probe(code: str) -> list:
    src = str(Path(simcores.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cli_import_leaves_unused_stdlib_out():
    # dataclasses and inspect, the thread pool (with logging) and fractions
    # (with decimal) cost start-up time that almost no command uses
    unused = ["concurrent.futures", "dataclasses", "decimal", "fractions", "inspect", "logging"]
    loaded = _probe(
        "import json, sys\n"
        f"unused = {unused!r}\n"
        "import simcores\n"
        "after_package = [m for m in unused if m in sys.modules]\n"
        "import simcores.cli\n"
        "print(json.dumps([after_package, [m for m in unused if m in sys.modules]]))\n")
    assert loaded == [[], []]


def test_power_series_loads_fractions_on_first_use():
    before, after, root = _probe(
        "import json, sys\n"
        "import simcores.series as series\n"
        "before = 'fractions' in sys.modules\n"
        "root = series.PowerSeries([1], 3).sqrt()\n"
        "after = 'fractions' in sys.modules\n"
        "print(json.dumps([before, after, [repr(a) for a in root.coeffs]]))\n")
    assert (before, after) == (False, True)
    assert root == ["Fraction(1, 1)"] + ["Fraction(0, 1)"] * 3
