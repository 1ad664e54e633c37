import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessionpi import parse_context, parse_process, type_check
from sessionpi.cli import main
from sessionpi.gen import poll_client_text, poll_context_text, poll_service_text
from tests.conftest import FIXTURES, fixture_names
from tests.helpers import deep_inputs

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture_args(name):
    root = FIXTURES / name
    return str(root / "process.pi"), "--ctx", str(root / "context.ctx")


def test_help_names_every_exit_code(capsys):
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for phrase in (
        "0 accept/agree",
        "1 reject/diverge/mismatch",
        "2 usage, parse or input error",
        "a missing or unreadable file",
        "a file that is not UTF-8",
        "a context error such as a void entry given to oracle",
        "input too deep to process",
        "3 inconclusive oracle verdict",
    ):
        assert phrase in text
    assert "``" not in text


def test_void_entry_given_to_oracle_is_a_context_error(capsys, tmp_path):
    proc = tmp_path / "p.pi"
    ctx = tmp_path / "c.ctx"
    proc.write_text("x!x.0\n")
    for entry in ("void", "<◦, lin !(un end).un end>"):
        ctx.write_text(f"x : {entry}\n")
        code, _, err = run_cli(capsys, "oracle", str(proc), "--ctx", str(ctx))
        assert code == 2, entry
        assert err.startswith("context error: "), entry


def test_missing_file_is_an_input_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "check", str(tmp_path / "absent.pi"))
    assert code == 2
    assert err.startswith("io error: ")


def test_check_accepts_poll_fixture(capsys):
    code, out, _ = run_cli(capsys, "check", *fixture_args("poll"))
    assert code == 0
    assert "accepted" in out


def test_check_rejects_misuse_with_no_pattern(capsys):
    code, out, _ = run_cli(capsys, "check", *fixture_args("lin_then_un_misuse"))
    assert code == 1
    assert "NoPattern" in out
    assert "x?(y)" in out


def test_check_empty_process_file_is_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty.pi"
    empty.write_text("")
    code, _, err = run_cli(capsys, "check", str(empty))
    assert code == 2
    assert "parse error" in err


def test_check_json_residual_round_trips(capsys):
    code, out, _ = run_cli(capsys, "check", *fixture_args("poll"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["accepted"] is True
    residual = parse_context(payload["residual"])
    original = parse_context((FIXTURES / "poll" / "context.ctx").read_text())
    assert residual.names() == original.names()
    # Re-serializing gives the same text: the serializers are inverses here.
    from sessionpi.contexts import context_file_text

    assert context_file_text(residual) == payload["residual"]


# Runs every fixture in the directory given as its argument through the four
# ``--json`` commands in one process, and prints one digest of their exit
# codes and reports without ``timing_ms``.
_DIGEST_FIXTURE_REPORTS = r'''
import contextlib, hashlib, io, json, sys
from pathlib import Path
from sessionpi.cli import main

digest = hashlib.sha256()
for root in sorted(p for p in Path(sys.argv[1]).iterdir() if p.is_dir()):
    proc, ctx = str(root / "process.pi"), ["--ctx", str(root / "context.ctx")]
    for argv in (["check", proc, *ctx, "--trace", "--audit"], ["oracle", proc, *ctx],
                 ["reduce", proc], ["congruence", proc, *ctx]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([*argv, "--json"])
        report = json.loads(out.getvalue())
        del report["timing_ms"]
        digest.update(json.dumps([code, report], sort_keys=True, ensure_ascii=False).encode())
print(digest.hexdigest())
'''


def test_reports_are_the_same_under_every_hash_seed():
    # Which objects are interned, and the order of sets and dicts keyed by
    # them, may vary with the string hash seed; no output may.
    digests = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed))
        done = subprocess.run(
            [sys.executable, "-c", _DIGEST_FIXTURE_REPORTS, str(FIXTURES)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout.strip())
    assert len(digests) == 1, digests


def test_check_trace_audit_json_matches_golden(capsys):
    # Pins rule names and their order, residuals, errors, and every audit
    # site with its match count; only the timing may differ.
    golden = json.loads((GOLDEN / "check_trace_audit.json").read_text(encoding="utf-8"))
    assert sorted(golden) == fixture_names()
    for name, want in golden.items():
        code, out, _ = run_cli(capsys, "check", *fixture_args(name), "--trace", "--audit", "--json")
        report = json.loads(out)
        del report["timing_ms"]
        assert code == want["exit_code"], name
        assert report == want["report"], name


def _large_context_inputs():
    """Inputs whose contexts hold more than 32 names: ``poll_system(40)``,
    and a chain of 100 receives whose binders each add a name."""
    chain = "".join(f"c?(y{k})." for k in range(1, 101)) + "0"
    return {
        "poll_system_40": (poll_context_text(40), f"{poll_service_text()} | {poll_client_text(40)}"),
        "receive_chain_100": ("c : rec a. un ?(un end).a", chain),
    }


# The exit code and the sha256 of the report without ``timing_ms``, written
# by ``json.dumps(report, sort_keys=True, ensure_ascii=False)``.  They pin
# the contexts of every trace step, the residual and the audit sites of
# runs over contexts of more than 32 names.
LARGE_CONTEXT_REPORTS = {
    ("poll_system_40", "check"): (0, "46a2c1a98b075e6184a6053dd3ef84da6c713227b3aefa5962611ca861dadd88"),
    ("poll_system_40", "oracle"): (0, "85645c66880ab43ba5de8e51955de9e821606eac2f3cc5a123685429373e4123"),
    ("receive_chain_100", "check"): (0, "d8bcc48e83df14f67448a34ebd8111846c96c697d172991795ac3ff8ea5d3319"),
    ("receive_chain_100", "oracle"): (0, "85645c66880ab43ba5de8e51955de9e821606eac2f3cc5a123685429373e4123"),
}


@pytest.mark.parametrize("name, command", sorted(LARGE_CONTEXT_REPORTS))
def test_reports_over_large_contexts_match_their_digests(tmp_path, capsys, name, command):
    ctx_text, proc_text = _large_context_inputs()[name]
    proc, ctx = tmp_path / f"{name}.pi", tmp_path / f"{name}.ctx"
    proc.write_text(proc_text, encoding="utf-8")
    ctx.write_text(ctx_text, encoding="utf-8")
    flags = ["--trace", "--audit", "--json"] if command == "check" else ["--json"]
    code, out, _ = run_cli(capsys, command, str(proc), "--ctx", str(ctx), *flags)
    report = json.loads(out)
    del report["timing_ms"]
    text = json.dumps(report, sort_keys=True, ensure_ascii=False)
    assert (code, hashlib.sha256(text.encode("utf-8")).hexdigest()) == LARGE_CONTEXT_REPORTS[name, command]


@pytest.mark.parametrize("name", sorted(deep_inputs()))
def test_check_trace_json_accepts_deep_inputs(tmp_path, capsys, name):
    ctx_text, proc_text = deep_inputs()[name]
    proc, ctx = tmp_path / f"{name}.pi", tmp_path / f"{name}.ctx"
    proc.write_text(proc_text, encoding="utf-8")
    ctx.write_text(ctx_text, encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(proc), "--ctx", str(ctx), "--trace", "--json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["accepted"] is True
    # The first step's subject is the whole term, renamed apart.
    checked = type_check(parse_context(ctx_text), parse_process(proc_text), trace=False)
    assert report["trace"][0]["subject"] == str(checked.process)


def test_check_prints_a_context_at_the_parsers_depth_limit(tmp_path, capsys):
    """An accepted check prints its residual however deeply the context's
    types nest: the deepest payload nesting the parser takes checks with
    exit 0, and the residual parses back to the same context."""
    proc, ctx = tmp_path / "p.pi", tmp_path / "c.ctx"
    proc.write_text("0\n")

    def check(n):
        text = "x : " + "un !(" * n + "un end" + ").un end" * n + "\nv : un end\n"
        ctx.write_text(text)
        return text, run_cli(capsys, "check", str(proc), "--ctx", str(ctx), "--json")

    deepest, over = 1, 2000  # the deepest nesting that parses, one that does not
    while over - deepest > 1:
        mid = (deepest + over) // 2
        if check(mid)[1][2].startswith("parse error"):
            over = mid
        else:
            deepest = mid
    assert "input too deep to parse" in check(over)[1][2]
    assert deepest > 200
    text, (code, out, err) = check(deepest)
    assert (code, err) == (0, "")
    assert parse_context(json.loads(out)["residual"]) == parse_context(text)


@pytest.mark.parametrize(
    "command, option, value",
    [("oracle", "--bound", "0"), ("oracle", "--bound", "-5"), ("reduce", "--steps", "-3"),
     ("congruence", "--iterations", "-2")],
)
def test_numeric_option_below_its_least_is_usage_error(command, option, value):
    args = fixture_args("poll")
    argv = [command, *(args[:1] if command == "reduce" else args), option, value]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "sessionpi.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    least = 1 if option == "--bound" else 0
    assert done.stderr.splitlines() == [f"usage error: {option} must be at least {least}, not {value}"]


def test_numeric_options_at_their_least_run(capsys):
    proc, *ctx = fixture_args("poll")
    assert run_cli(capsys, "oracle", proc, *ctx, "--bound", "1")[0] == 3
    assert run_cli(capsys, "reduce", proc, "--steps", "0")[0] == 0
    assert run_cli(capsys, "congruence", proc, *ctx, "--iterations", "0")[0] == 0


@pytest.mark.parametrize("command", ["check", "reduce"])
def test_too_deep_input_is_usage_error_without_traceback(tmp_path, command):
    proc = tmp_path / "chain.pi"
    proc.write_text("x!v." * 1000 + "0\n")
    ctx = tmp_path / "chain.ctx"
    ctx.write_text("x : rec a. un !(un end).a\nv : un end\n")
    argv = [command, str(proc)] + (["--ctx", str(ctx)] if command == "check" else [])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "sessionpi.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2
    assert "input too deep" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "command, bad",
    [("check", "process"), ("check", "ctx"), ("oracle", "ctx"), ("reduce", "process")],
)
def test_non_utf8_input_is_usage_error_without_traceback(tmp_path, command, bad):
    proc = tmp_path / "p.pi"
    ctx = tmp_path / "c.ctx"
    proc.write_text("x!v.0\n")
    ctx.write_text("x : un !(un end).un end\nv : un end\n")
    (proc if bad == "process" else ctx).write_bytes(b"\xff\xfe")
    argv = [command, str(proc)] + (["--ctx", str(ctx)] if command != "reduce" else [])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "sessionpi.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2
    assert "not UTF-8" in done.stderr
    assert len(done.stderr.splitlines()) == 1
    assert "Traceback" not in done.stderr


def _oldest_supported_python() -> str:
    """A Python 3.10, the floor ``pyproject.toml`` declares: the ``python3.10``
    on PATH, else one installed under ``$PYENV_ROOT`` (``~/.pyenv`` if unset),
    or a skip saying why none of them runs."""
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    candidates = [shutil.which("python3.10"), *sorted(map(str, pyenv.glob("versions/3.10*/bin/python3.10")))]
    failures = []
    for exe in filter(None, candidates):
        probe = subprocess.run(
            [exe, "-c", "import sys; print(sys.version_info[:2])"],
            capture_output=True, text=True, timeout=60,
        )
        if probe.returncode == 0 and probe.stdout.strip() == "(3, 10)":
            return exe
        first_line = (probe.stderr.strip().splitlines() or ["no error output"])[0]
        failures.append(f"{exe}: {first_line}")
    pytest.skip(f"no python3.10 runs as Python 3.10: {'; '.join(failures) or 'none found'}")


def test_cli_checks_every_fixture_on_the_oldest_supported_python():
    # ``-S`` keeps site-packages off the path: the package needs the
    # standard library only.
    exe = _oldest_supported_python()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name in fixture_names():
        expected = json.loads((FIXTURES / name / "expected.json").read_text())
        done = subprocess.run(
            [exe, "-S", "-m", "sessionpi.cli", "check", "--json", *fixture_args(name)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        accepted = expected["check"] == "accepted"
        assert "Traceback" not in done.stderr, (name, done.stderr)
        assert done.returncode == (0 if accepted else 1), (name, done.stderr)
        assert json.loads(done.stdout)["accepted"] is accepted, name


def test_unbound_type_variable_in_context_is_one_positioned_line(tmp_path):
    proc = tmp_path / "p.pi"
    ctx = tmp_path / "c.ctx"
    proc.write_text("x!x.0\n")
    ctx.write_text("x : un end\ny : rec a. b\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "sessionpi.cli", "check", str(proc), "--ctx", str(ctx)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("parse error: 2:12: ")
    assert "Traceback" not in done.stderr


def test_check_trace_and_audit_flags(capsys):
    code, out, _ = run_cli(capsys, "check", *fixture_args("poll"), "--trace", "--audit")
    assert code == 0
    assert "[A-Par]" in out
    assert "max matches 1" in out


def test_oracle_agreement_on_trivial_problem(tmp_path, capsys):
    proc = tmp_path / "p.pi"
    proc.write_text("0\n")
    code, out, _ = run_cli(capsys, "oracle", str(proc))
    assert code == 0
    assert "agree" in out


def test_oracle_flags_witness_disagreement(capsys):
    code, out, _ = run_cli(capsys, "oracle", *fixture_args("witness_input_then_output"))
    assert code == 1
    assert "reject" in out and "derivable" in out and "disagree" in out


def test_oracle_poll_fixture_agrees(capsys):
    code, out, _ = run_cli(capsys, "oracle", *fixture_args("poll"))
    assert code == 0
    assert "accept" in out and "agree" in out


def test_oracle_inconclusive_exit_code(capsys):
    code, out, _ = run_cli(capsys, "oracle", *fixture_args("poll"), "--bound", "3")
    assert code == 3


def test_reduce_ping_two_steps(capsys):
    root = FIXTURES / "ping"
    code, out, _ = run_cli(capsys, "reduce", str(root / "process.pi"), "--steps", "2")
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 3  # initial term plus two communications
    assert "R-Com on x" in out


def test_reduce_inert_process(tmp_path, capsys):
    proc = tmp_path / "p.pi"
    proc.write_text("0\n")
    code, out, _ = run_cli(capsys, "reduce", str(proc), "--steps", "10")
    assert code == 0
    assert len([line for line in out.splitlines() if line.strip()]) == 1


def test_reduce_unfolds_deep_replication_and_has_no_radius(tmp_path, capsys):
    proc = tmp_path / "p.pi"
    proc.write_text("!!!!x!v.0 | x?(y).0\n")
    code, out, _ = run_cli(capsys, "reduce", str(proc), "--steps", "1", "--json")
    assert code == 0
    assert [step["rule"] for step in json.loads(out)["steps"]] == ["-", "R-Com on x"]
    with pytest.raises(SystemExit) as done:
        main(["reduce", str(proc), "--radius", "3"])
    assert done.value.code == 2


def test_reduce_poll_protocol(capsys):
    root = FIXTURES / "poll"
    code, out, _ = run_cli(
        capsys, "reduce", str(root / "process.pi"), "--steps", "4", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    channels = [step["rule"] for step in payload["steps"][1:]]
    assert channels[0] == "R-Com on x"
    assert any("R-Com on p" in c for c in channels)


def test_congruence_fuzz_no_divergence(capsys):
    code, out, _ = run_cli(
        capsys,
        "congruence",
        *fixture_args("poll"),
        "--iterations",
        "500",
        "--seed",
        "5",
    )
    assert code == 0
    assert "no divergence" in out


def test_congruence_fuzz_detects_injected_bug(tmp_path, capsys, monkeypatch):
    # A checker that forgets to demand an unrestricted residue (and re-void)
    # after a linear output accepts thread orders it should not; the fuzzer
    # must flag the first verdict flip.
    from sessionpi.checker import _Checker
    from sessionpi.contexts import Single, VOID, update_entry
    from sessionpi.equality import unfold

    def buggy_out_lin(self, g, p):
        entry = g.get(p.chan)
        head = unfold(entry.item)
        g1 = g.set(p.chan, Single(VOID))
        g2 = self.check_var(g1, p.arg, head.pre.payload)
        return self.check(update_entry(g2, p.chan, head.pre.cont), p.cont)

    monkeypatch.setattr(_Checker, "_rule_out_lin", buggy_out_lin)
    proc = tmp_path / "p.pi"
    proc.write_text("x!v.0 | x?(y).0\n")
    ctx = tmp_path / "c.ctx"
    ctx.write_text("x : lin !(un end).rec a. un ?(un end).a\nv : un end\n")
    code, out, _ = run_cli(
        capsys,
        "congruence",
        str(proc),
        "--ctx",
        str(ctx),
        "--iterations",
        "50",
        "--seed",
        "1",
    )
    assert code == 1
    assert "DIVERGENCE" in out
    code, out, _ = run_cli(capsys, "congruence", str(proc), "--ctx", str(ctx), "--iterations", "50",
                           "--seed", "1", "--json")
    assert code == 1
    assert list(json.loads(out)) == [
        "command", "timing_ms", "accepted", "divergence", "iterations_run"
    ]


def test_congruence_fuzz_deterministic_reports(capsys):
    args = (
        "congruence",
        *fixture_args("poll"),
        "--iterations",
        "25",
        "--seed",
        "9",
        "--json",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    mask = lambda s: re.sub(r'"timing_ms": [0-9.]+', '"timing_ms": 0', s)
    assert mask(out1) == mask(out2)


def test_table_command_all_rows(capsys):
    code, out, _ = run_cli(capsys, "table")
    assert code == 0
    assert "24/24 rows match" in out


def _json_keys(capsys, *argv) -> list[str]:
    _, out, _ = run_cli(capsys, *argv, "--json")
    return list(json.loads(out))


def test_json_reports_keep_their_key_order(capsys):
    # The golden file stores sorted keys; this pins the order the CLI prints.
    head = ["command", "timing_ms"]
    check = ("check", "--trace", "--audit")
    assert _json_keys(capsys, *check, *fixture_args("poll")) == head + [
        "accepted", "residual", "trace", "audits"
    ]
    assert _json_keys(capsys, *check, *fixture_args("lin_then_un_misuse")) == head + [
        "accepted", "error", "trace", "audits"
    ]
    oracle = ["oracle_verdict", "agreement", "oracle_bound"]
    assert _json_keys(capsys, "oracle", *fixture_args("poll")) == head + ["accepted", *oracle]
    assert _json_keys(capsys, "oracle", *fixture_args("witness_input_then_output")) == head + [
        "accepted", "error", *oracle
    ]
    ping = str(FIXTURES / "ping" / "process.pi")
    assert _json_keys(capsys, "reduce", ping) == head + ["steps"]
    assert _json_keys(capsys, "congruence", *fixture_args("poll"), "--iterations", "5") == head + [
        "accepted", "iterations_run"
    ]
    assert _json_keys(capsys, "table") == head + ["rows", "matched"]


def test_table_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "table", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["matched"] == "24/24"
    assert all(row["ok"] for row in payload["rows"])


# Bytes that decode to the grammar's own text, which reaches past the parsers.
_GRAMMAR_BYTES = st.lists(
    st.sampled_from(list(" \n#!?().|:,<>0◦xy") + ["rec a.", "lin ", "un ", "end", "new ", " : "])
).map(lambda words: "".join(words).encode())


@st.composite
def _edited_fixture(draw):
    """A fixture's process and context, a few bytes of one spliced, which
    reaches the checker."""
    name = draw(st.sampled_from(fixture_names()))
    files = [(FIXTURES / name / "process.pi").read_bytes(), (FIXTURES / name / "context.ctx").read_bytes()]
    which = draw(st.integers(0, 1))
    start = draw(st.integers(0, len(files[which])))
    stop = draw(st.integers(start, min(start + 3, len(files[which]))))
    files[which] = files[which][:start] + draw(st.binary(max_size=3)) + files[which][stop:]
    return tuple(files)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(files=st.tuples(st.binary() | _GRAMMAR_BYTES, st.binary() | _GRAMMAR_BYTES) | _edited_fixture())
def test_check_on_any_bytes_exits_with_a_documented_code(files):
    with tempfile.TemporaryDirectory() as root:
        proc, ctx = Path(root) / "p.pi", Path(root) / "c.ctx"
        proc.write_bytes(files[0])
        ctx.write_bytes(files[1])
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["check", str(proc), "--ctx", str(ctx)])
    assert code in (0, 1, 2, 3)
