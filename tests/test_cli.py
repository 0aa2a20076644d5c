import argparse
import dataclasses
import hashlib
import importlib
import inspect
import json
import pkgutil
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import spherecorr
from spherecorr import PackingBudget, RngStream, SearchBudget, estimate_distortion, optimize_packing, verify
from spherecorr.cli import build_parser, main, parse_k_range
from spherecorr.serialize import dumps
from spherecorr.verify import run_verify
from spherecorr.voronoi_corr import even_cross


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("SPHERECORR_CACHE", str(tmp_path / "cache"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_parse_k_range():
    assert parse_k_range("7") == [7]
    assert parse_k_range("3..6") == [3, 4, 5, 6]
    with pytest.raises(ValueError):
        parse_k_range("6..3")


def test_bound_circle_even(capsys):
    code, out = run_cli(capsys, "bound", "--n", "1", "--k", "6")
    assert code == 0
    row = json.loads(out)
    assert row["two_dgh_bound"] == pytest.approx(6 * np.pi / 7, abs=1e-12)
    assert row["exactness"] == "exact"
    assert row["euclidean_bound"] == pytest.approx(np.sin(3 * np.pi / 7), abs=1e-12)


def test_bound_circle_odd(capsys):
    code, out = run_cli(capsys, "bound", "--n", "1", "--k", "7")
    assert code == 0
    row = json.loads(out)
    assert row["two_dgh_bound"] == pytest.approx(6 * np.pi / 7, abs=1e-12)
    assert row["exactness"] == "exact"


def test_bound_general(capsys):
    code, out = run_cli(capsys, "bound", "--n", "2", "--k", "7")
    assert code == 0
    row = json.loads(out)
    assert row["two_dgh_bound"] == pytest.approx(7 * np.pi / 8, abs=1e-12)
    assert row["exactness"] == "upper-bound"


def test_bound_range_and_csv(capsys):
    code, out = run_cli(capsys, "bound", "--n", "1", "--k", "2..5", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("n,k,")
    assert len(lines) == 5


def test_bound_usage_error(capsys):
    code, _ = run_cli(capsys, "bound", "--n", "3", "--k", "2")
    assert code == 2


@pytest.mark.parametrize("argv, digest", [
    (("--n", "1", "--k", "2..12"), "2f5da4fa3f03c989e042eec419568643233c79217b2c1e10e652f33c2e2f21fe"),
    (("--n", "2", "--k", "3..40", "--format", "csv"), "a25b0344d3f0ca3b3091585e3704f361513d43c43122deb13a4c28c2ca0289e5"),
])
def test_bound_bytes_are_pinned(capsys, argv, digest):
    code, out = run_cli(capsys, "bound", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_distortion_odd(capsys):
    code, out = run_cli(
        capsys,
        "distortion", "--corr", "odd-rk", "--k", "3",
        "--samples", "40000", "--refine-iters", "30", "--seed", "7",
    )
    assert code == 0
    report = json.loads(out)
    assert report["estimate"] == pytest.approx(2 * np.pi / 3, abs=0.01)
    assert report["bound"] == pytest.approx(2 * np.pi / 3, abs=1e-12)


def test_distortion_rpq(capsys):
    code, out = run_cli(
        capsys,
        "distortion", "--corr", "rpq-even-cross", "--k", "2",
        "--samples", "40000", "--refine-iters", "30", "--seed", "7",
    )
    assert code == 0
    report = json.loads(out)
    assert report["estimate"] == pytest.approx(2 * np.pi / 3, abs=0.01)


@pytest.mark.parametrize(
    "k,seed",
    [(k, seed) for k in (3, 5, 7) for seed in (0, 3, 23, 107, 130)],
    ids=lambda v: str(v),
)
def test_odd_estimate_does_not_exceed_true_distortion(capsys, k, seed):
    # refinement once paired a point 6.8e-10 outside cell 1 with a cell-1
    # angle (k=5, seed 130)
    code, out = run_cli(
        capsys,
        "distortion", "--corr", "odd-rk", "--k", str(k),
        "--samples", "262144", "--threads", "1", "--seed", str(seed),
    )
    assert code == 0
    report = json.loads(out)
    assert report["bound"] == (k - 1) * np.pi / k
    assert report["estimate"] <= (k - 1) * np.pi / k + 1e-12
    # the witness objective and the closed form may differ by roundoff only
    assert report["estimate"] - report["bound"] <= 4 * np.spacing(report["bound"])


@pytest.mark.parametrize(
    "k,seed",
    [(k, seed) for k in (2, 3, 4, 5, 6) for seed in (0, 3, 23, 130)],
    ids=lambda v: str(v),
)
def test_rpq_estimate_stays_within_ulps_of_its_bound(capsys, k, seed):
    # at k = 4 the witness distance is computed from rounded site coordinates
    # and prints one ulp above the closed-form 4pi/5
    code, out = run_cli(
        capsys,
        "distortion", "--corr", "rpq-even-cross", "--k", str(k),
        "--samples", "65536", "--seed", str(seed),
    )
    assert code == 0
    report = json.loads(out)
    assert report["bound"] == pytest.approx(k * np.pi / (k + 1), abs=1e-15)
    assert report["estimate"] - report["bound"] <= 4 * np.spacing(report["bound"])


def test_distortion_rejects_even_k_for_odd_corr(capsys):
    code, _ = run_cli(capsys, "distortion", "--corr", "odd-rk", "--k", "4", "--samples", "100")
    assert code == 2


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_distortion_rejects_fewer_than_one_thread(capsys, threads):
    code, out = run_cli(
        capsys, "distortion", "--corr", "odd-rk", "--k", "3", "--samples", "100", "--threads", threads
    )
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("threads", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ("packing", "--n", "2", "--k", "5"),
    ("table", "--n", "2", "--k", "3..4"),
    ("verify", "--scope", "geometry"),
    ("verify", "--scope", "packing"),
    ("verify", "--scope", "pointsets"),
])
def test_commands_reject_fewer_than_one_thread(capsys, argv, threads):
    # packing and table run serially, but a worker count below one is still a usage error;
    # test_distortion_rejects_fewer_than_one_thread covers distortion
    code = main([*argv, "--threads", threads])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "threads must be >= 1" in captured.err


def test_distortion_byte_identical_across_threads(capsys):
    outs = []
    for threads in ("1", "4", "8"):
        code, out = run_cli(
            capsys,
            "distortion", "--corr", "odd-rk", "--k", "3",
            "--samples", "40000", "--refine-iters", "20",
            "--seed", "3", "--threads", threads,
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("corr, k", [("odd-rk", "3"), ("odd-rk", "9"), ("rpq-even-cross", "4")])
def test_phase_a_reports_are_thread_independent(capsys, corr, k):
    # four shards, no refinement: every printed byte comes from phase A
    outs = []
    for threads in ("1", "2"):
        code, out = run_cli(
            capsys, "distortion", "--corr", corr, "--k", k,
            "--samples", "131072", "--refine-iters", "0", "--seed", "0", "--threads", threads,
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_packing_command_and_cache(capsys, tmp_path):
    args = (
        "packing", "--n", "2", "--k", "3",
        "--ascent-steps", "800", "--polish-steps", "200", "--restarts", "8", "--seed", "1",
    )
    code, out1 = run_cli(capsys, *args)
    assert code == 0
    # the flags fill PackingBudget(ascent_steps, polish_steps, restarts)
    result = optimize_packing(2, 4, PackingBudget(800, 200, 8), RngStream(1))
    row = dict(result.to_json_dict(), n=2, m=4, min_dist_over_pi=result.min_dist / np.pi)
    assert out1 == dumps(row) + "\n"
    assert result.min_dist == pytest.approx(np.arccos(1 / 3), abs=1e-3)
    # second run is served from the cache, byte-identical
    code, out2 = run_cli(capsys, *args)
    assert code == 0
    assert out1 == out2


def test_packing_output_does_not_depend_on_cache_state(capsys, tmp_path, monkeypatch):
    args = ("packing", "--n", "2", "--k", "8", "--seed", "5")
    code, fresh = run_cli(capsys, *args)
    assert code == 0
    # table optimizes the same (n, m) on another stream and caches it
    monkeypatch.setenv("SPHERECORR_CACHE", str(tmp_path / "after-table"))
    code, _ = run_cli(capsys, "table", "--n", "2", "--k", "8..8", "--seed", "5")
    assert code == 0
    code, after_table = run_cli(capsys, *args)
    assert code == 0
    assert after_table == fresh


@pytest.mark.parametrize("argv", [
    ("packing", "--n", "2", "--k", "3"),
    ("table", "--n", "2", "--k", "3..4"),
])
def test_unusable_cache_location_only_skips_the_save(capsys, tmp_path, monkeypatch, argv):
    args = (*argv, "--ascent-steps", "50", "--polish-steps", "0", "--restarts", "2")
    code, fresh = run_cli(capsys, *args)
    assert code == 0
    blocked = tmp_path / "a-file"
    blocked.write_text("")
    monkeypatch.setenv("SPHERECORR_CACHE", str(blocked))
    with pytest.warns(RuntimeWarning, match="packing cache save skipped"):
        code, out = run_cli(capsys, *args)
    assert code == 0
    assert out == fresh


@pytest.mark.parametrize("argv", [
    ("packing", "--n", "2", "--k", "3"),
    ("table", "--n", "2", "--k", "3..4", "--ascent-steps", "200"),
])
def test_cache_entry_with_flat_points_is_recomputed(capsys, tmp_path, argv):
    code, fresh = run_cli(capsys, *argv)
    assert code == 0
    paths = sorted((tmp_path / "cache").glob("pack_*.json"))
    assert paths
    for path in paths:
        entry = json.loads(path.read_text())
        entry["points"] = [0.6, 0.8]
        path.write_text(json.dumps(entry))
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == fresh


def test_packing_anchor_default_flags(capsys):
    # six lines in RP^2 pack at arccos(1/sqrt(5)); the benchmark allows 1e-3
    errors = []
    for seed in range(8):
        code, out = run_cli(capsys, "packing", "--n", "2", "--k", "5", "--threads", "1", "--seed", str(seed))
        assert code == 0
        errors.append(abs(json.loads(out)["min_dist"] - np.arccos(1 / np.sqrt(5))))
    assert max(errors) <= 5e-4, errors


def test_packing_usage_error(capsys):
    code, _ = run_cli(capsys, "packing", "--n", "2", "--k", "2")
    assert code == 2


def test_verify_geometry(capsys):
    code, out = run_cli(capsys, "verify", "--scope", "geometry", "--samples", "5000")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().split("\n")]
    assert all(row["status"] == "pass" for row in rows)
    assert {"invariant", "status", "max_violation", "witness", "detail", "scope"} <= set(rows[0])


def test_verify_bytes_are_pinned(capsys):
    # every scope at its defaults: a change to any check that moves a printed value fails here
    code, out = run_cli(capsys, "verify", "--scope", "all", "--seed", "0", "--threads", "2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "95ecb03f7b05a467884f1dba83716a24b0af83a34bd057f0f681a4e7bc2fcf96"


@pytest.mark.parametrize("corr, k, digest", [
    ("odd-rk", 3, "1cb2f60d6d1c78a57605357887ee258e699651f86b964818d35bd63889663bc6"),
    ("odd-rk", 5, "987a8136a5767032baa379ddb95b5c3b3de5d658d3817651d892f06d3d7320fc"),
    ("rpq-even-cross", 4, "98c65f17995ca94475b38f520384145fdc84e8b4d38b891233b1cb911ef47758"),
    # rows 10 wide, where the sums of squares keep numpy's pairwise order
    ("odd-rk", 9, "38bb33dbce30215be2d7646a4a14a1da7ca61cb83fa9ac2e40da013e4fc98e6d"),
    ("rpq-even-cross", 9, "f5b59137ebfdb6100380544ae4a8f9419d46a92fe446f59f219eee991e33f79b"),
])
def test_distortion_bytes_are_pinned(capsys, corr, k, digest):
    # the estimate, its witness and the printed bound: a change to a cell table,
    # an angle map or a distance kernel that moves one of them fails here
    code, out = run_cli(capsys, "distortion", "--corr", corr, "--k", str(k), "--samples", "65536", "--seed", "0")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, code, digest", [
    (("--scope", "geometry", "--samples", "400000", "--seed", "0"), 0,
     "bc88853a01d8d079aed71cec392e9425a388fe6baa6f8a5eac70ccf86de246d5"),
    (("--scope", "odd", "--k", "3", "--samples", "70000", "--seed", "0"), 0,
     "06862e3c08f7d9babc79c735b343c9a82ea1733683114dc238bab2cce6353fba"),
    (("--scope", "odd", "--k", "3", "--seed", "107"), 1,
     "fd92590d7b52821812823a26466aa6cff746e440f7cb014b7773d7cbcba83338"),
])
def test_verify_bytes_across_blocks_are_pinned(capsys, argv, code, digest):
    # budgets whose sampled checks span several verify.BLOCK_ROWS blocks; seed 107
    # is the known boundary-search failure, whose bytes hold too
    got, out = run_cli(capsys, "verify", *argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("argv, digest", [
    (("distortion", "--corr", "rpq-even-cross", "--k", "4", "--samples", "262144", "--seed", "0"),
     "489e8c0a5e59184befd4f7d7f071276f6377ee1aac3f4c70f649ec7d7a26496c"),
    (("verify", "--scope", "rpq", "--k", "2..6", "--seed", "0"),
     "f477a9feb7e30edd10e89119f31a62faa822ee62753720029401594804bac090"),
    (("verify", "--scope", "pointsets", "--seed", "23"),
     "7ad5a97aee0caeb152f37b3a78b2bd7d8bceb908616324a5937863c9f123f534"),
], ids=["rpq4", "verify-rpq", "verify-pointsets"])
def test_phase_b_bytes_are_pinned(capsys, argv, threads, digest):
    # outputs whose values come out of the phase B climbs (the collapse pairs and the
    # in-cell vdiam pairs): a climb step that moves one bit fails here, at any worker count
    code, out = run_cli(capsys, *argv, "--threads", threads)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


RPQ_ESTIMATE_DIGESTS = {
    2: "b5e60249848583e9e36e5371d6e2edbef0025d5db65ee8317b60e6cca22f75cb",
    3: "f0e04bc806152766027d8db907c61d5da95e8af49ee12f8e9f842f959021fbc8",
    4: "f17b731898e2f63e8aa30989771a613e21bea3b7226714c4f16ce22bc1c66639",
    5: "52f4cac534c4d2236cb4c8f46c40ad2c2ee552abe96dcb64663c4412b9964968",
    6: "b58f68443a8d1ca51f863af0bfa6676ba54e801e0d7cfb76ed244c62115ca50a",
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("k", sorted(RPQ_ESTIMATE_DIGESTS))
def test_rpq_scope_estimate_reports_are_pinned(k, threads):
    # the estimate-within-bound runs of `verify --scope rpq --k 2..6 --seed 0`: their
    # printed row reads only pass or fail, so the reports themselves are pinned here
    corr, _ = even_cross(k)
    report = estimate_distortion(corr, SearchBudget(20000, 60), RngStream(0).child(3, 100 + k), threads=threads)
    assert hashlib.sha256(dumps(report.to_json_dict()).encode()).hexdigest() == RPQ_ESTIMATE_DIGESTS[k]


@pytest.mark.parametrize("argv", [("--scope", "all", "--k", "2..3"), ("--scope", "rpq", "--k", "1..3")])
def test_verify_rejects_a_bad_k_before_any_scope_runs(capsys, monkeypatch, argv):
    def ran(*args):
        raise AssertionError("a scope ran before its k values were checked")

    for check in ("check_geometry", "check_pointsets", "check_rpq", "check_odd", "check_packing"):
        monkeypatch.setattr(verify, check, ran)
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "scope needs" in captured.err


@pytest.mark.parametrize("scope", ["geometry", "pointsets", "packing"])
def test_verify_rejects_k_for_a_scope_that_reads_none(capsys, scope):
    code = main(["verify", "--scope", scope, "--k", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "reads no k values" in captured.err


def test_verify_samples_default_is_the_library_default():
    args = build_parser().parse_args(["verify"])
    assert args.samples == inspect.signature(run_verify).parameters["samples"].default


@pytest.mark.parametrize("scope", ["all", "geometry", "pointsets", "rpq", "odd", "packing"])
@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_rejects_fewer_than_one_sample(capsys, scope, samples):
    # each check raises its own floor on the budget, so a bad budget must fail before any runs
    code = main(["verify", "--scope", scope, "--samples", samples])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "samples must be >= 1" in captured.err


@pytest.mark.parametrize("flag", [("--format", "csv"), ("--refine-iters", "5"), ("--restarts", "2")])
def test_verify_rejects_flags_it_does_not_read(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--scope", "geometry", *flag])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("packing", "--n", "2", "--k", "3", "--samples", "800"),
    ("table", "--n", "2", "--k", "3..4", "--refine-iters", "150"),
    ("packing", "--n", "2", "--k", "3", "--format", "csv"),
    ("distortion", "--corr", "odd-rk", "--k", "3", "--format", "csv"),
])
def test_commands_reject_flags_they_do_not_read(capsys, argv):
    # packing and table take PackingBudget's flags; nested rows print as JSON only
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def readme_command_lines() -> list[str]:
    """The ``spherecorr ...`` lines of the README's "Command line" code block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("spherecorr ")]


def test_readme_command_lines_parse():
    # a renamed or removed flag makes its README example exit 2
    lines = readme_command_lines()
    assert lines
    for line in lines:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])


def readme_module_names() -> list[tuple[str, str]]:
    """Every backticked ``<module>.<name>`` of the README, for spherecorr's modules."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    modules = {m.name for m in pkgutil.iter_modules(spherecorr.__path__)} | {"spherecorr"}
    spans = re.findall(r"`([^`]+)`", text)
    cited = (re.fullmatch(r"(\w+)\.(\w+)(\(.*\))?", span, flags=re.S) for span in spans)
    return [(m[1], m[2]) for m in cited if m and m[1] in modules]


def test_readme_module_names_resolve():
    # a deleted or renamed name that the README cites as `module.name` fails here
    names = readme_module_names()
    assert ("geometry", "hill_climb") in names and ("spherecorr", "distortion") in names
    for module, name in names:
        if module == "spherecorr":
            importlib.import_module(f"spherecorr.{name}")
        else:
            assert hasattr(importlib.import_module(f"spherecorr.{module}"), name), f"{module}.{name}"


def test_distortion_has_no_restarts_flag():
    # packing's --restarts counts starts; distortion's candidate strata are distortion.CANDIDATE_STRATA
    with pytest.raises(SystemExit) as exc:
        main(["distortion", "--corr", "odd-rk", "--k", "3", "--restarts", "8"])
    assert exc.value.code == 2


def readme_command_flags() -> dict[str, list[str]]:
    """The backticked ``--flag`` spans of each bullet of the README's per-command flag list."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("Each command takes only the flags it reads", 1)[1].split("\n\n", 2)[1]
    bullets = re.findall(r"^- `(\w+)`:(.*?)(?=^- |\Z)", block, flags=re.M | re.S)
    return {command: re.findall(r"`(--[\w-]+)", body) for command, body in bullets}


def test_readme_command_flags_are_options():
    # a flag the README lists for a command that its subparser does not take fails here
    flags = readme_command_flags()
    assert set(flags) == {"bound", "distortion", "packing", "table", "verify"}
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, listed in flags.items():
        assert listed
        options = subparsers.choices[command]._option_string_actions
        assert [flag for flag in listed if flag not in options] == [], command


@pytest.mark.parametrize("argv, budget", [
    (("distortion", "--corr", "odd-rk", "--k", "3"), SearchBudget()),
    (("packing", "--n", "2", "--k", "3"), PackingBudget()),
    (("table", "--n", "2", "--k", "3..4"), PackingBudget()),
])
def test_budget_flags_default_to_the_library_budget(argv, budget):
    args = build_parser().parse_args(list(argv))
    fields = dataclasses.asdict(budget)
    assert {name: getattr(args, name, None) for name in fields} == fields


@pytest.mark.parametrize("seed", range(4))
def test_verify_geometry_at_a_million_samples(capsys, seed):
    # the circle embedding reaches 0 and pi, where a clipped arccos loses ~1e-11
    code, out = run_cli(capsys, "verify", "--scope", "geometry", "--samples", "1000000", "--seed", str(seed))
    assert code == 0
    assert all(json.loads(line)["status"] == "pass" for line in out.strip().split("\n"))


def test_verify_odd_k3(capsys):
    code, out = run_cli(capsys, "verify", "--scope", "odd", "--k", "3", "--samples", "5000")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().split("\n")]
    names = {row["invariant"] for row in rows}
    assert "corner-correspondents-k3" in names
    assert all(row["status"] == "pass" for row in rows)


def test_verify_rpq_range(capsys):
    code, out = run_cli(capsys, "verify", "--scope", "rpq", "--k", "2..4", "--samples", "4000")
    assert code == 0


def test_verify_failure_exit_code(capsys, monkeypatch):
    import spherecorr.cli as cli
    from spherecorr.verify import InvariantResult

    failing = InvariantResult("synthetic", "geometry", False, 1.0, "forced failure")
    monkeypatch.setattr(cli, "run_verify", lambda *a, **kw: [failing])
    code, out = run_cli(capsys, "verify", "--scope", "geometry")
    assert code == 1
    assert json.loads(out)["status"] == "fail"


def test_table_csv(capsys):
    code, out = run_cli(
        capsys,
        "table", "--n", "2", "--k", "3..6",
        "--ascent-steps", "800", "--polish-steps", "150", "--restarts", "6", "--seed", "2",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,bound,gap,gap_sqrtk"
    assert len(lines) == 5
    gaps = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(g > 0 for g in gaps)


@pytest.mark.parametrize("n, ks, digest", [
    (2, "3..12", "75bc40709a2a3baff2b4f6e9df5bbb8b564ddad75c049bf7521badf1f9569a80"),
    (3, "4..9", "f0b2be1b6e69f063242135d6b0fc96a4e397fcb8767ff1835264156fc07e6039"),
])
def test_table_bytes_are_pinned(capsys, n, ks, digest):
    # every printed bound is certified; a change that moves one fails here
    code, out = run_cli(capsys, "table", "--n", str(n), "--k", ks, "--seed", "0")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_table_usage_errors(capsys):
    code, _ = run_cli(capsys, "table", "--n", "1", "--k", "3..5")
    assert code == 2
    code, _ = run_cli(capsys, "table", "--n", "2", "--k", "2..5")
    assert code == 2


def test_out_file(capsys, tmp_path):
    path = tmp_path / "row.json"
    code, out = run_cli(capsys, "bound", "--n", "1", "--k", "4", "--out", str(path))
    assert code == 0
    assert out == ""
    row = json.loads(path.read_text())
    assert row["two_dgh_bound"] == pytest.approx(4 * np.pi / 5, abs=1e-12)


def test_identical_invocations_are_byte_identical(capsys):
    _, out1 = run_cli(capsys, "bound", "--n", "2", "--k", "3..9")
    _, out2 = run_cli(capsys, "bound", "--n", "2", "--k", "3..9")
    assert out1 == out2


def test_verify_reports_a_wrong_correspondent_count_as_a_failure(capsys, monkeypatch):
    # three expected angles against the corner's four correspondents
    monkeypatch.setattr(verify, "CORNER_K3", tuple((coords, angles[:3]) for coords, angles in verify.CORNER_K3))
    code, out = run_cli(capsys, "verify", "--scope", "odd", "--k", "3", "--samples", "5000")
    assert code == 1
    records = {r["invariant"]: r for r in map(json.loads, out.splitlines())}
    assert records["corner-correspondents-k3"]["status"] == "fail"
    assert records["corner-correspondents-k3"]["max_violation"] == np.pi
    assert [name for name, r in records.items() if r["status"] == "fail"] == ["corner-correspondents-k3"]
