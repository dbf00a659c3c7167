"""Command-line behavior: exit codes, report shape, and replay.

The small model files used here have hand-checked verdicts. The toy
two-bit model passes both unwinding checks (its high action moves a
variable the low domain never observes); the leaky variant exposes
that variable, so `toggle` must fail local respect with observer `lo`
and fail bounded noninterference at length 1. The one-variable `roll`
model draws nondeterministically, so two identical states step to
observably different successors, which is exactly a step-consistency
violation. Those verdicts pin the exit codes, and every violation
report must replay back to the same condition.
"""

import inspect
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import ifsec
from ifsec.cli import main
from ifsec.models import REGISTRY
from ifsec.specfile import elaborate_model

TOY = """\
[domains]
hi
lo

[policy]
hi -> hi
lo -> hi
lo -> lo

[state]
x in {0, 1} = 0
y in {0, 1} = 0

[actions]
act poke lo
  x=0 -> x:=1
  x=1 -> x:=0

act toggle hi
  y=0 -> y:=1
  y=1 -> y:=0

[observe]
hi: x y
lo: x
"""

LEAKY = TOY.replace("lo: x\n", "lo: x y\n")

ROLL = """\
[domains]
lo

[policy]
lo -> lo

[state]
x in {0, 1} = 0

[actions]
act roll lo
  * -> x:=0
  * -> x:=1

[observe]
lo: x
"""

NO_REFLEXIVE = TOY.replace("lo -> hi\nlo -> lo\n", "lo -> hi\n")

ABSTRACT = """\
[domains]
hi
lo

[policy]
hi -> hi
lo -> hi
lo -> lo

[state]
x in {0, 1} = 0

[actions]
act poke lo
  x=0 -> x:=1
  x=1 -> x:=0

[observe]
hi: x
lo: x
"""

CONCRETE = """\
[domains]
hi
lo

[policy]
hi -> hi
lo -> hi
lo -> lo

[state]
x in {0, 1} = 0
y in {0, 1} = 0

[actions]
act cleanup hi
  y=1 -> y:=0

act dirty hi
  y=0 -> y:=1

act poke lo
  x=0 -> x:=1
  x=1 -> x:=0

[observe]
hi: x
lo: x
"""

PAIR = """\
[refinement]
concrete: concrete.ifs
abstract: abstract.ifs

[alpha]
match: x == x

[zeta]
cleanup -> tau
dirty -> tau
poke -> poke

[components]
cleanup: janitor
dirty: janitor
poke: worker

[rely janitor]
keeps: y

[guarantee janitor]
may: y

[rely worker]
keeps: x

[guarantee worker]
may: x
"""

# Janitor's guarantee frame no longer covers y, so its `dirty` step
# breaks the silent-step lemma.
PAIR_BAD_GUARANTEE = PAIR.replace(
    "[guarantee janitor]\nmay: y\n", "[guarantee janitor]\nmay: x\n")


def pair_with_worker_rely(lines: str) -> str:
    """PAIR with the worker's rely given by explicit `pair:` lines."""
    return PAIR.replace("[rely worker]\nkeeps: x\n", "[rely worker]\n" + lines)


#: A 1,000-assignment model with one action: 5 traces of length <= 4.
WIDE = """\
[domains]
lo

[policy]
lo -> lo

[state]
a in {0, 1, 2, 3, 4, 5, 6, 7, 8, 9} = 0
b in {0, 1, 2, 3, 4, 5, 6, 7, 8, 9} = 0
c in {0, 1, 2, 3, 4, 5, 6, 7, 8, 9} = 0

[actions]
act tick lo
  a=0 -> a:=1

[observe]
lo: a
"""


@pytest.fixture()
def models(tmp_path):
    files = {
        "toy.ifs": TOY,
        "leaky.ifs": LEAKY,
        "roll.ifs": ROLL,
        "no_reflexive.ifs": NO_REFLEXIVE,
        "abstract.ifs": ABSTRACT,
        "concrete.ifs": CONCRETE,
        "pair.ifs": PAIR,
        "pair_badg.ifs": PAIR_BAD_GUARANTEE,
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path


@pytest.fixture()
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


@pytest.fixture()
def saved_report(run, tmp_path):
    def save(*argv, edit=None):
        """Save the --json report of `argv`; `edit` overwrites fields of
        the first failing witness, as a hand-edited report would."""
        code, out, _ = run(*argv, "--json")
        if edit:
            data = json.loads(out)
            failing = next(c for c in data["checks"] if c["status"] == "fail")
            failing["witness"].update(edit)
            out = json.dumps(data)
        path = tmp_path / "report.json"
        path.write_text(out, encoding="utf-8")
        return code, str(path)
    return save


def assert_stale(code, err):
    assert code == 2
    assert "no longer reproduces" in err and "stale" in err


class TestList:
    def test_names_every_registry_entry(self, run):
        code, out, _ = run("list")
        assert code == 0
        for name in REGISTRY:
            assert name in out

    def test_json_shape(self, run):
        code, out, _ = run("list", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["command"] == "list"
        names = [m["name"] for m in data["models"]]
        assert names == list(REGISTRY)
        demo = data["models"][0]
        assert demo["params"] == {"threads": 3, "capacity": 1, "messages": 1}

    def test_defaults_agree_with_builder_signatures(self):
        # `list` and the model flags show each registry entry's defaults,
        # so they must be what its builder takes when a flag is left out.
        # A flag's help names one default: entries that share a parameter
        # share its default.
        shown = {}
        for entry in REGISTRY.values():
            builder = getattr(ifsec.models, f"build_{entry.family}")
            signature = inspect.signature(builder).parameters
            for name, default in entry.params.items():
                assert signature[name].default == default, (entry.name, name)
                assert shown.setdefault(name, default) == default, name

    def test_console_script_is_installed(self):
        proc = subprocess.run(["ifsec", "list"], capture_output=True,
                              text=True, check=False)
        assert proc.returncode == 0
        assert "demo" in proc.stdout


class TestExitCodes:
    def test_pass_is_zero(self, run, models):
        code, out, _ = run("check", "unwinding", str(models / "toy.ifs"))
        assert code == 0
        assert "verdict: PASS" in out

    def test_violation_is_one(self, run, models):
        code, out, _ = run("check", "unwinding", str(models / "leaky.ifs"))
        assert code == 1
        assert "lr: FAIL" in out

    def test_unknown_target_is_two(self, run):
        code, _, err = run("check", "unwinding", "nosuch")
        assert code == 2
        assert "unknown model or file" in err

    def test_parse_error_is_three(self, run, tmp_path):
        bad = tmp_path / "bad.ifs"
        bad.write_text("[state]\nx in {0} = 0\n", encoding="utf-8")
        code, _, err = run("check", "unwinding", str(bad))
        assert code == 3
        assert "hint:" in err

    # Each file the command reads is named once, ahead of the message.
    @pytest.mark.parametrize("name,old,new,message", [
        ("concrete.ifs", "hi\nlo\n", "hi\nlo\nlo\n",
         "duplicate domain 'lo' (line 4, column 1)"),
        ("pair.ifs", "[alpha]", "[alpha beta]",
         "section [alpha] takes no name (line 5, column 1)"),
        ("pair.ifs", "[zeta]", "[bogus]",
         "unknown section header '[bogus]' (line 8, column 1)"),
        ("pair.ifs", "abstract: abstract.ifs\n", "",
         "does not name an abstract model (line 1, column 1)"),
    ], ids=["level-file", "takes-no-name", "unknown-header", "no-abstract"])
    def test_parse_error_names_its_file_once(self, run, models, name, old,
                                             new, message):
        path = models / name
        path.write_text(path.read_text(encoding="utf-8").replace(old, new, 1),
                        encoding="utf-8")
        code, _, err = run("check", "refine", str(models / "pair.ifs"))
        assert code == 3
        assert err.splitlines()[0] == f"ifsec: parse error: {path}: {message}"
        assert err.count(name) == 1

    def test_model_error_is_three(self, run, models):
        short = PAIR.split("[components]")[0].replace(
            "cleanup -> tau\n", "")
        (models / "short.ifs").write_text(short, encoding="utf-8")
        code, _, err = run("check", "refine", str(models / "short.ifs"))
        assert code == 3
        assert "cleanup" in err

    def test_budget_exhaustion_is_four(self, run, models):
        code, _, err = run("check", "unwinding", str(models / "toy.ifs"),
                           "--budget", "2")
        assert code == 4
        assert "budget" in err

    @pytest.mark.parametrize("kind", ["unwinding", "refine", "compositional"])
    def test_budget_bounds_builtin_builds(self, run, kind):
        code, _, err = run("check", kind, "demo-insecure-counter",
                           "--budget", "100")
        assert code == 4
        assert "budget of 100 states exceeded at BFS depth" in err
        assert "--budget" in err

    @pytest.mark.parametrize("argv", [
        ("--max-len", "20000"),
        ("--max-len", "99999999999999999999999", "--budget", "5")])
    def test_ni_huge_length_bound_is_four_at_once(self, run, argv):
        # The trace count stops once it passes the budget, so neither
        # bound is summed in full.
        started = time.perf_counter()
        code, _, err = run("check", "ni", "auction", *argv)
        assert time.perf_counter() - started < 1
        assert code == 4
        limit = argv[3] if len(argv) > 2 else "500000"
        assert (f"trace budget exceeded: more than {limit} traces of length "
                f"<= {argv[1]} over 22 actions (limit {limit})") in err

    def test_ni_budget_hint_names_the_flags_that_help(self, run):
        # `check ni` takes no action set, so the hint names the two
        # bounds the command line can change.
        code, _, err = run("check", "ni", "demo-insecure-fullstatus",
                           "--budget", "1")
        assert code == 4
        assert err.rstrip().endswith(
            "(limit 1); raise --budget or lower --max-len"), err

    def test_ni_budget_counts_traces_not_assignments(self, run, tmp_path):
        wide = tmp_path / "wide.ifs"
        wide.write_text(WIDE, encoding="utf-8")
        code, out, err = run("check", "ni", str(wide), "--budget", "500",
                             "--json")
        assert code == 0, err
        assert json.loads(out)["counters"]["model_traces"] == 5
        code, _, err = run("check", "unwinding", str(wide), "--budget", "500")
        assert code == 4
        assert "declared state space has 1000 assignments (limit 500)" in err

    def test_contract_pair_binding_other_variables_is_three(self, run,
                                                            models):
        path = models / "pair_z.ifs"
        path.write_text(pair_with_worker_rely(
            "pair: x=0;y=0;z=0 ~ x=0;y=1;z=0\n"), encoding="utf-8")
        code, _, err = run("check", "compositional", str(path))
        assert code == 3
        assert "[rely worker] pair state" in err
        assert "does not bind exactly the concrete variables" in err

    def test_invalid_kind_is_argparse_exit_two(self, models):
        with pytest.raises(SystemExit) as exc:
            main(["check", "nosuchkind", str(models / "toy.ifs")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("check", "unwinding", "toy", "--max-len", "3"),
        ("check", "unwinding", "toy", "--universe", "--depth", "2"),
        ("check", "ni", "toy", "--universe"),
        ("check", "ni", "toy", "--depth", "2"),
        ("check", "refine", "toy", "--domain", "hi"),
        ("check", "refine", "toy", "--universe"),
        ("check", "refine", "toy", "--depth", "2"),
        ("check", "compositional", "toy", "--depth", "2"),
    ])
    def test_stray_flag_is_two(self, run, models, argv):
        argv = [a if a != "toy" else str(models / "toy.ifs") for a in argv]
        code, _, err = run(*argv)
        assert code == 2
        assert "does not apply" in err

    def test_nonpositive_bound_is_two(self, run, models):
        code, _, err = run("check", "unwinding", str(models / "toy.ifs"),
                           "--depth", "0")
        assert code == 2
        assert "at least 1" in err

    def test_model_params_on_file_target_is_two(self, run, models):
        code, _, err = run("check", "unwinding", str(models / "toy.ifs"),
                           "--threads", "2")
        assert code == 2
        assert "built-in" in err

    def test_unknown_param_for_model_is_two(self, run):
        code, _, err = run("check", "unwinding", "arinc", "--users", "2")
        assert code == 2
        assert "does not take parameter" in err

    def test_unknown_domain_is_two(self, run, models):
        for kind in ("unwinding", "ni"):
            code, _, err = run("check", kind, str(models / "toy.ifs"),
                               "--domain", "nosuch")
            assert code == 2
            assert "unknown domain 'nosuch'; model declares ['hi', 'lo']" \
                in err, kind

    def test_universe_without_declared_space_is_two(self, run):
        code, _, err = run("check", "unwinding", "arinc", "--universe")
        assert code == 2
        assert "universe" in err

    def test_compositional_without_contracts_is_two(self, run, models):
        bare = PAIR.split("[components]")[0]
        (models / "bare.ifs").write_text(bare, encoding="utf-8")
        code, _, err = run("check", "compositional", str(models / "bare.ifs"))
        assert code == 2
        assert "contracts" in err

    def test_model_file_where_refinement_expected_is_three(self, run, models):
        code, _, err = run("check", "refine", str(models / "toy.ifs"))
        assert code == 3


class TestCheckBehavior:
    def test_domain_filter_hides_the_leak(self, run, models):
        leaky = str(models / "leaky.ifs")
        code_all, _, _ = run("check", "unwinding", leaky)
        code_hi, _, _ = run("check", "unwinding", leaky, "--domain", "hi")
        assert (code_all, code_hi) == (1, 0)

    def test_universe_scope_is_reported(self, run, models):
        code, out, _ = run("check", "unwinding", str(models / "toy.ifs"),
                           "--universe")
        assert code == 0
        assert "scope: universe" in out

    def test_only_universe_scoped_checks_and_replay_build_the_universe(
            self, run, models, monkeypatch, tmp_path):
        built = []

        def spy(doc, **kwargs):
            system = elaborate_model(doc, **kwargs)
            built.append(system.machine.universe is not None)
            return system

        monkeypatch.setattr("ifsec.specfile.elaborate_model", spy)
        leaky = str(models / "leaky.ifs")
        code, out, _ = run("check", "unwinding", leaky, "--json")
        report = tmp_path / "report.json"
        report.write_text(out, encoding="utf-8")
        run("check", "ni", leaky)
        code_u, out, _ = run("check", "unwinding", leaky, "--universe",
                             "--json")
        universe_report = tmp_path / "universe.json"
        universe_report.write_text(out, encoding="utf-8")
        assert (code, code_u) == (1, 1)
        assert run("replay", str(report))[0] == 0
        assert run("replay", str(universe_report))[0] == 0
        assert built == [False, False, True, False, True]

    def test_ni_reports_trace_counts(self, run, models):
        code, out, _ = run("check", "ni", str(models / "toy.ifs"),
                           "--max-len", "2", "--json")
        assert code == 0
        data = json.loads(out)
        # 1 empty trace, 2 of length one, 4 of length two.
        assert data["counters"]["model_traces"] == 7

    def test_refinement_file_runs_all_conditions(self, run, models):
        code, out, _ = run("check", "refine", str(models / "pair.ifs"),
                           "--json")
        assert code == 0
        data = json.loads(out)
        names = [c["name"] for c in data["checks"]]
        assert names == ["c1", "c2", "c3", "c4", "c5", "c6",
                         "refinement", "cross-check",
                         "concrete-lr", "concrete-sc",
                         "abstract-lr", "abstract-sc"]

    def test_compositional_file_runs_lemmas(self, run, models):
        code, out, _ = run("check", "compositional", str(models / "pair.ifs"),
                           "--json")
        assert code == 0
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert names == ["lemma1", "lemma2", "lemma3", "lemma4",
                         "cross-check"]

    @pytest.mark.parametrize("template", ["x={x};y={y} ~ x={x};y={z}",
                                          "y={y};x={x} ~ y={z};x={x}"])
    def test_contract_pairs_bind_variables_in_any_order(self, run, models,
                                                        template):
        # The worker relies on exactly the janitor's steps, which flip y.
        lines = "".join("pair: " + template.format(x=x, y=y, z=1 - y) + "\n"
                        for x in (0, 1) for y in (0, 1))
        path = models / "pair_table.ifs"
        path.write_text(pair_with_worker_rely(lines), encoding="utf-8")
        code, out, err = run("check", "compositional", str(path))
        assert code == 0, out + err
        assert "lemma3: pass" in out

    def test_missing_reflexive_edge_warns_on_stderr(self, run, models):
        _, _, err = run("check", "unwinding",
                        str(models / "no_reflexive.ifs"))
        assert "no reflexive policy edge" in err
        assert "lo" in err


class TestReportShape:
    def test_file_target_report(self, run, models):
        code, out, _ = run("check", "unwinding", str(models / "leaky.ifs"),
                           "--json")
        assert code == 1
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["command"] == "check"
        assert data["kind"] == "unwinding"
        assert data["verdict"] == "fail"
        assert data["exit_code"] == 1
        model = data["model"]
        assert model["source"] == "file"
        digest = model["files"][str(models / "leaky.ifs")]
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
        lr = data["checks"][0]
        assert lr["name"] == "lr" and lr["status"] == "fail"
        assert lr["witness"]["type"] == "lr"
        assert lr["witness"]["action"] == "toggle"
        assert lr["witness"]["domain"] == "lo"

    def test_builtin_target_report(self, run):
        code, out, _ = run("check", "unwinding", "arinc",
                           "--capacity", "2", "--json")
        assert code == 0
        model = json.loads(out)["model"]
        assert model["source"] == "builtin"
        assert model["name"] == "arinc"
        assert model["params"] == {"capacity": 2}
        assert model["build_params"]["variant"] == "secure"

    def test_options_are_echoed(self, run, models):
        _, out, _ = run("check", "ni", str(models / "toy.ifs"),
                        "--max-len", "2", "--budget", "500", "--json")
        options = json.loads(out)["options"]
        assert options == {"depth": None, "max_len": 2, "domain": None,
                           "universe": False, "budget": 500}

    def test_reports_are_deterministic(self, run, models):
        argv = ("check", "unwinding", str(models / "leaky.ifs"), "--json")
        _, first, _ = run(*argv)
        _, second, _ = run(*argv)

        def strip(text):
            return [line for line in text.splitlines()
                    if "wall_time_s" not in line]

        assert strip(first) == strip(second)
        assert first != ""


class TestReplay:
    # Edited so that it describes no violation: hi -> hi is allowed.
    @pytest.mark.parametrize("edit", [None, {"domain": "hi"}])
    def test_lr_witness_reproduces(self, run, saved_report, models, edit):
        code, report = saved_report("check", "unwinding",
                                    str(models / "leaky.ifs"), edit=edit)
        assert code == 1
        code, out, err = run("replay", report)
        if edit:
            assert_stale(code, err)
            return
        assert code == 0
        assert "reproduced lr" in out
        assert "'toggle'" in out and "'lo'" in out

    def test_sc_witness_reproduces(self, run, saved_report, models):
        code, report = saved_report("check", "unwinding",
                                    str(models / "roll.ifs"))
        assert code == 1
        code, out, _ = run("replay", report)
        assert code == 0
        assert "reproduced sc" in out

    # Edited so that it describes no violation: for hi, ipurge keeps
    # `toggle`, so nothing is purged.
    @pytest.mark.parametrize("edit", [None, {"domain": "hi"}])
    def test_ni_witness_reproduces(self, run, saved_report, models, edit):
        code, report = saved_report("check", "ni", str(models / "leaky.ifs"),
                                    edit=edit)
        assert code == 1
        code, out, err = run("replay", report)
        if edit:
            assert_stale(code, err)
            return
        assert code == 0
        assert "reproduced ni" in out
        assert "full trace" in out and "purged trace" in out

    def test_c2_witness_reproduces_on_builtin(self, run, saved_report):
        code, report = saved_report("check", "refine",
                                    "demo-insecure-counter",
                                    "--threads", "2")
        assert code == 1
        data = json.loads(pathlib.Path(report).read_text(encoding="utf-8"))
        c2 = [c for c in data["checks"] if c["name"] == "c2"][0]
        assert c2["status"] == "fail"
        assert c2["witness"]["trace"][-1].endswith("/incr")
        code, out, _ = run("replay", report)
        assert code == 0
        assert "reproduced c2" in out

    # Edited so that it blames a component whose step it is not, for a
    # reason no lemma gives.
    @pytest.mark.parametrize("edit", [
        None, {"component": "worker", "reason": "made up"}])
    def test_lemma_witness_reproduces(self, run, saved_report, models, edit):
        code, report = saved_report("check", "compositional",
                                    str(models / "pair_badg.ifs"), edit=edit)
        assert code == 1
        code, out, err = run("replay", report)
        if edit:
            assert_stale(code, err)
            return
        assert code == 0
        assert "reproduced lemma1" in out
        assert "janitor" in out

    def test_unreachable_witness_state_is_not_in_the_rebuilt_model(
            self, run, saved_report, models):
        # z is declared and never written, so z=1 is unreachable; a
        # reachable-scoped replay builds no state with it.
        (models / "wide.ifs").write_text(
            LEAKY.replace("[actions]", "z in {0, 1} = 0\n\n[actions]"),
            encoding="utf-8")
        code, report = saved_report("check", "unwinding",
                                    str(models / "wide.ifs"),
                                    edit={"state": "x=0;y=0;z=1"})
        assert code == 1
        code, _, err = run("replay", report)
        assert code == 2
        assert "'x=0;y=0;z=1' is not a state of the rebuilt model" in err

    @pytest.mark.parametrize("path,value", [
        (("model", "source"), "file"),
        (("model", "params"), [1]),
        (("model", "params"), {"capacity": "x"}),
        (("model", "name"), [1]),
        (("model",), [1]),
        (("options",), [1]),
        (("checks",), None),
        (("checks",), {"status": "fail"}),
        (("checks",), []),
        (("checks",), ["fail", 1]),
    ], ids=["file-without-path", "params-list", "param-not-int", "name-list",
            "model-list", "options-list", "checks-missing", "checks-object",
            "checks-empty", "checks-no-objects"])
    def test_malformed_report_is_rejected(self, run, saved_report, tmp_path,
                                          path, value):
        _, report = saved_report("check", "unwinding", "arinc-port-id")
        data = json.loads(pathlib.Path(report).read_text(encoding="utf-8"))
        *parents, key = path
        target = data
        for parent in parents:
            target = target[parent]
        if value is None:
            del target[key]
        else:
            target[key] = value
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(data), encoding="utf-8")
        code, _, err = run("replay", str(edited))
        assert code == 2
        assert err.startswith("ifsec: error: report ")
        if key == "checks":
            assert "has no list of checks" in err

    # `never` is a hi action that writes what lo sees, enabled only at
    # x=1;y=1: it fails lr there, and it is disabled at the start.
    @pytest.mark.parametrize("edit,fragment", [
        ({"domain": "ghost"}, "the rebuilt model has no domain 'ghost'"),
        ({"trace": ["never"]},
         "witness trace does not execute: 'never' is disabled"),
        ({"type": "c2"}, "a c2 witness needs a refinement target"),
    ], ids=["unknown-domain", "disabled-step", "refinement-witness"])
    def test_edited_witness_is_stale(self, run, saved_report, models, edit,
                                     fragment):
        gated = models / "gated.ifs"
        gated.write_text(LEAKY.replace(
            "[observe]", "act never hi\n  x=1, y=1 -> x:=0\n\n[observe]"),
            encoding="utf-8")
        code, report = saved_report("check", "unwinding", str(gated),
                                    edit=edit)
        assert code == 1
        code, _, err = run("replay", report)
        assert code == 2
        assert fragment in err and "stale" in err

    def test_lr_witness_on_builtin_reproduces(self, run, saved_report):
        code, report = saved_report("check", "unwinding", "arinc-port-id")
        assert code == 1
        code, out, _ = run("replay", report)
        assert code == 0
        assert "reproduced lr" in out

    def test_json_output(self, run, saved_report, models):
        _, report = saved_report("check", "unwinding",
                                 str(models / "leaky.ifs"))
        code, out, _ = run("replay", report, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["command"] == "replay"
        assert data["condition"] == "lr"
        assert data["reproduced"] is True

    def test_pass_report_is_rejected(self, run, saved_report, models):
        code, report = saved_report("check", "unwinding",
                                    str(models / "toy.ifs"))
        assert code == 0
        code, _, err = run("replay", report)
        assert code == 2
        assert "records a pass" in err

    def test_changed_model_file_is_stale(self, run, saved_report, models):
        _, report = saved_report("check", "unwinding",
                                 str(models / "leaky.ifs"))
        (models / "leaky.ifs").write_text(TOY, encoding="utf-8")
        code, _, err = run("replay", report)
        assert code == 2
        assert "stale" in err

    def test_missing_model_file_is_stale(self, run, saved_report, models):
        _, report = saved_report("check", "unwinding",
                                 str(models / "leaky.ifs"))
        (models / "leaky.ifs").unlink()
        code, _, err = run("replay", report)
        assert code == 2
        assert "stale" in err

    def test_unknown_builtin_is_rejected(self, run, saved_report, tmp_path):
        _, report = saved_report("check", "unwinding", "arinc-queuing-mode")
        data = json.loads(pathlib.Path(report).read_text(encoding="utf-8"))
        data["model"]["name"] = "nosuch"
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(data), encoding="utf-8")
        code, _, err = run("replay", str(edited))
        assert code == 2
        assert "unknown model" in err

    def test_non_json_file_is_rejected(self, run, models):
        code, _, err = run("replay", str(models / "toy.ifs"))
        assert code == 2
        assert "not a JSON run report" in err

    def test_wrong_schema_is_rejected(self, run, tmp_path):
        path = tmp_path / "wrong_schema.json"
        path.write_text(json.dumps({"schema": 2, "command": "check"}),
                        encoding="utf-8")
        code, _, err = run("replay", str(path))
        assert code == 2
        assert "schema" in err

    def test_list_report_is_rejected(self, run, saved_report):
        _, report = saved_report("list")
        code, _, err = run("replay", report)
        assert code == 2
        assert "ifsec check" in err


#: Run in a fresh interpreter: `ifsec.cli.main` on the arguments, then
#: one JSON line on stderr with the exit code, the `ifsec` modules whose
#: body ran, those still waiting as lazy modules, and whether OpenSSL's
#: `_hashlib` was loaded.
#: Standard-library modules no command needs: the module of
#: `@dataclass`, and `inspect`, which it imports.
UNNEEDED = ("dataclasses", "inspect")

FOOTPRINT = f"""\
import importlib.util, json, sys, types
import ifsec.cli
code = ifsec.cli.main(sys.argv[1:])
kinds = {{name: type(module) for name, module in sys.modules.items()
         if name.startswith("ifsec.")}}
print(json.dumps({{
    "code": code,
    "ran": sorted(n for n, k in kinds.items() if k is types.ModuleType),
    "lazy": sorted(n for n, k in kinds.items()
                   if k is importlib.util._LazyModule),
    "openssl": "_hashlib" in sys.modules,
    "unneeded": [n for n in {UNNEEDED!r} if n in sys.modules],
}}), file=sys.stderr)
"""

#: Every lazy module: the package's checker modules, the witness
#: protocol and, once the registry has run, its builder modules.
CHECKERS = {"ifsec.models", "ifsec.noninterference", "ifsec.programs",
            "ifsec.refinement", "ifsec.specfile", "ifsec.unwinding",
            "ifsec.witness"}
BUILDERS = {"ifsec.models.arinc", "ifsec.models.auction",
            "ifsec.models.common", "ifsec.models.demo"}

#: What every command runs: the CLI, `core` and the model registry,
#: which decides whether a target is a built-in model.
BASE = {"ifsec.cli", "ifsec.core", "ifsec.models"}
#: A built-in model's build: its builder and what the builders import.
#: The refinement pair and contracts are built only when read, so a
#: build runs neither `refinement` nor `unwinding`.
BUILTIN = BASE | {"ifsec.models.common", "ifsec.programs"}


def child_env() -> dict[str, str]:
    src = os.path.dirname(os.path.dirname(ifsec.__file__))
    return dict(os.environ, PYTHONPATH=src)


def footprint(*argv: str) -> tuple[int, set[str], set[str], bool, set[str]]:
    """Exit code, modules run, modules left lazy, whether OpenSSL was
    loaded and which `UNNEEDED` modules were imported by one command in
    a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, *argv],
                          env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stderr.splitlines()[-1])
    return (result["code"], set(result["ran"]), set(result["lazy"]),
            result["openssl"], set(result["unneeded"]))


@pytest.fixture(scope="module")
def bare_unneeded() -> set[str]:
    """The `UNNEEDED` modules a bare interpreter in the same environment
    imports: `site` hooks differ between machines, and some import
    `inspect`."""
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys; print(*(n for n in {UNNEEDED!r} if n in sys.modules))"],
        env=child_env(), capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_failing_unwinding_maps_no_state_to_its_id(run, monkeypatch):
    """lr and sc keep the ids of the states they report, so the report
    traces each witness without mapping every state of its level to its
    id, and the traces are the search's."""
    built = []
    get_model = ifsec.models.get_model

    def recording(*args, **kwargs):
        built.append(get_model(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(ifsec.models, "get_model", recording)
    code, out, _ = run("check", "unwinding", "demo-insecure-fullstatus",
                       "--json")
    assert code == 1
    (bundle,) = built
    assert [level.machine._ids for level in (bundle.concrete,
                                             bundle.abstract)] == [None, None]
    checks = {check["name"]: check for check in json.loads(out)["checks"]}
    for label, level in (("concrete", bundle.concrete),
                         ("abstract", bundle.abstract)):
        lr = checks[f"{label}-lr"]["witness"]
        search = ifsec.explore(level.machine)
        state = next(s for s in level.machine.by_id
                     if s.serialize() == lr["state"])
        assert lr["trace"] == list(search.trace_to(
            level.machine.id_of(state)))


class TestStartup:
    """Each command runs only the modules it uses.

    In-process tests cannot see this: by the time they run, every module
    of the package has been imported. So each command runs in a fresh
    interpreter. A module whose body has not run is still a lazy module
    (`importlib.util._LazyModule`); every checker module is in
    `sys.modules` either way, which tools that rebind functions by
    module rely on. Only a failing check and a replay run the witness
    protocol, and only model files, which are hashed, load OpenSSL. No
    command imports an `UNNEEDED` module that a bare interpreter does
    not: records are `core.record` classes, not dataclasses.
    """

    @pytest.mark.parametrize("argv,code,ran", [
        (("list",), 0, BASE),
        (("check", "unwinding", "demo", "--threads", "2"), 0,
         BUILTIN | {"ifsec.models.demo", "ifsec.unwinding"}),
        (("check", "refine", "auction"), 0,
         BUILTIN | {"ifsec.models.auction", "ifsec.refinement",
                    "ifsec.unwinding"}),
        (("check", "compositional", "arinc"), 0,
         BUILTIN | {"ifsec.models.arinc", "ifsec.refinement"}),
        (("check", "ni", "auction", "--max-len", "2"), 0,
         BUILTIN | {"ifsec.models.auction", "ifsec.noninterference"}),
        (("check", "unwinding", "@/leaky.ifs"), 1,
         BASE | {"ifsec.specfile", "ifsec.unwinding", "ifsec.witness"}),
        (("check", "ni", "@/leaky.ifs"), 1,
         BASE | {"ifsec.specfile", "ifsec.noninterference",
                 "ifsec.witness"}),
        (("check", "refine", "@/pair.ifs"), 0,
         BASE | {"ifsec.specfile", "ifsec.refinement", "ifsec.unwinding"}),
        (("check", "compositional", "@/pair.ifs"), 0,
         BASE | {"ifsec.specfile", "ifsec.refinement"}),
    ], ids=["list", "builtin-unwinding", "builtin-refine",
            "builtin-compositional", "builtin-ni", "file-unwinding",
            "file-ni", "file-refine", "file-compositional"])
    def test_command_runs_only_its_modules(self, models, bare_unneeded,
                                           argv, code, ran):
        from_file = any(a.startswith("@") for a in argv)
        argv = [a.replace("@", str(models)) for a in argv]
        got_code, got_ran, lazy, openssl, unneeded = footprint(*argv)
        assert got_code == code
        assert got_ran == ran
        assert got_ran | lazy == CHECKERS | BUILDERS | BASE
        assert openssl == from_file
        assert unneeded <= bare_unneeded

    @pytest.mark.parametrize("family", ["arinc", "auction", "demo"])
    def test_builder_imported_first_still_builds(self, family):
        """An import statement that names a builder module before
        `ifsec.models` has run puts an eagerly run module in
        `sys.modules`; the registry builds with that one."""
        module = f"ifsec.models.{family}"
        proc = subprocess.run([sys.executable, "-c", (
            f"import sys, {module}\n"
            "from ifsec import models\n"
            f"bundle = models.get_model({family!r})\n"
            f"assert models.build_{family} is "
            f"sys.modules[{module!r}].build_{family}\n"
            "print(type(bundle).__name__)")],
            env=child_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ModelBundle\n"

    def test_replay_runs_only_its_modules(self, saved_report, models,
                                          bare_unneeded):
        code, report = saved_report("check", "unwinding",
                                    str(models / "leaky.ifs"))
        assert code == 1
        got_code, ran, _, openssl, unneeded = footprint("replay", report)
        assert got_code == 0
        assert ran == BASE | {"ifsec.specfile", "ifsec.unwinding",
                              "ifsec.witness"}
        assert openssl
        assert unneeded <= bare_unneeded

    def test_module_run_replays_without_a_second_cli(self, run, saved_report,
                                                     models):
        """Under `python -m ifsec.cli` the CLI runs as `__main__`. No
        module it reaches may import `ifsec.cli`, which would run cli.py
        a second time; `-X importtime` lists every module imported."""
        _, report = saved_report("check", "unwinding",
                                 str(models / "leaky.ifs"))
        _, expected, _ = run("replay", report)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "ifsec.cli", "replay",
             report], env=child_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected
        imported = {line.rsplit("|", 1)[-1].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "ifsec" in imported
        assert "ifsec.cli" not in imported

    # An ni witness is replayed on its level alone, so the pair is not
    # built; a c2 witness is re-checked on the pair. A built-in is not
    # hashed.
    @pytest.mark.parametrize("argv,ran", [
        (("ni", "demo-insecure-fullstatus", "--domain", "t1"),
         BUILTIN | {"ifsec.models.demo", "ifsec.noninterference",
                    "ifsec.witness"}),
        (("refine", "demo-insecure-counter", "--threads", "2"),
         BUILTIN | {"ifsec.models.demo", "ifsec.refinement",
                    "ifsec.witness"}),
    ], ids=["ni", "c2"])
    def test_builtin_replay_builds_the_pair_only_for_it(self, saved_report,
                                                        bare_unneeded, argv,
                                                        ran):
        code, report = saved_report("check", *argv)
        assert code == 1
        got_code, got_ran, _, openssl, unneeded = footprint("replay", report)
        assert got_code == 0
        assert got_ran == ran
        assert not openssl
        assert unneeded <= bare_unneeded
