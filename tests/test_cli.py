import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hktlie import cli, rootsys, spaces
from hktlie.cstruct import MIN_FD_STEP

from conftest import CLI_RANGE


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# roots

def test_roots_b3(capsys):
    code, out, _ = run(capsys, "roots", "B3")
    assert code == 0
    assert "positive roots (9)" in out
    assert "(1,1,0)" in out
    assert "A1 + A1" in out


def test_roots_a1(capsys):
    code, out, _ = run(capsys, "roots", "A1")
    assert code == 0
    assert "positive roots (1)" in out


def test_roots_d4_surgery(capsys):
    code, out, _ = run(capsys, "roots", "D4")
    assert code == 0
    assert "A1 + A1 + A1" in out


def test_roots_json_roundtrip(capsys):
    code, out, _ = run(capsys, "--json", "roots", "B3")
    assert code == 0
    doc = json.loads(out)
    assert doc["surgery"]["summands"] == ["A1", "A1"]
    assert cli.canonical_json(doc) == out.strip()


def test_roots_bad_input(capsys):
    code, _, err = run(capsys, "roots", "Q7")
    assert code == 2
    assert "error" in err


def test_roots_out_of_range(capsys):
    code, _, err = run(capsys, "roots", "B9")
    assert code == 2
    assert "range" in err


# ---------------------------------------------------------------------------
# verify

def test_verify_a2_certified(capsys):
    code, out, _ = run(capsys, "verify", "A2")
    assert code == 0
    assert "verdict: certified" in out


def test_verify_a3_not_admissible(capsys):
    code, out, _ = run(capsys, "verify", "A3")
    assert code == 3
    assert "requires 1 u(1) factor" in out


def test_verify_b3_padded(capsys):
    code, out, _ = run(capsys, "verify", "B3xU1^3")
    assert code == 0
    assert "dimension: 24" in out


def test_verify_coset_string(capsys):
    code, out, _ = run(capsys, "verify", "B3xU1^2/A1:gamma")
    assert code == 0
    assert "dimension: 20" in out


def test_verify_coset_with_abelian(capsys):
    code, out, _ = run(capsys, "verify", "A3xU1^1/A1:beta,u1")
    assert code == 0
    assert "dimension: 12" in out


def test_verify_parse_error(capsys):
    code, _, err = run(capsys, "verify", "A2/")
    assert code == 2
    assert "error" in err


def test_verify_unknown_summand(capsys):
    code, _, err = run(capsys, "verify", "B3xU1^2/A1:delta")
    assert code == 2
    assert "available" in err


def test_verify_json_certificate(capsys):
    code, out, _ = run(capsys, "--json", "verify", "A2")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "certified"
    assert doc["dimension"] == 8
    assert set(doc["residuals"]) == {"I", "J", "K"}
    for key in ("integrability", "square", "bismut", "torsion_match", "nijenhuis"):
        assert key in doc["residuals"]["I"]
    # canonical serialization round-trips byte for byte
    assert cli.canonical_json(json.loads(out)) == out.strip()


#: the certificate lines of `hkt verify` that name the chain and its verdict
CERTIFICATE_LINES = ("dimension:", "u(1) padding:", "basic roots:", "automorphisms:",
                     "verdict:")


@pytest.mark.parametrize("space,code,lines", [
    ("B3xU1^2/A1:alpha", 0, [
        "dimension: 20",
        "u(1) padding: 2",
        "basic roots: B3 theta=(1,1,0) (level 0); A1:gamma theta=(0,0,1) (level 1)",
        "automorphisms: J-kind at (1,1,0) (level 0); J-kind at (0,0,1) (level 1)",
        "verdict: certified"]),
    ("A2xB3xU1^3", 0, [
        "dimension: 32",
        "u(1) padding: 3",
        "basic roots: A2 theta=(1,0,-1) (level 0); B3 theta=(1,1,0) (level 0); "
        "A1:alpha theta=(1,-1,0) (level 1); A1:gamma theta=(0,0,1) (level 1)",
        "automorphisms: J-kind at (1,0,-1) (level 0); J-kind at (1,1,0) (level 0); "
        "J-kind at (1,-1,0) (level 1); J-kind at (0,0,1) (level 1)",
        "verdict: certified"]),
    ("A3", 3, ["verdict: not-admissible (SU(4): requires 1 u(1) factor(s), got 0)"]),
])
def test_verify_text_certificate_lines(capsys, space, code, lines):
    """The text certificate's chain lines, exactly: a quotient, a product,
    and a space that is not admissible, which prints its verdict alone."""
    got, out, err = run(capsys, "verify", space)
    assert (got, err) == (code, "")
    assert [l for l in out.splitlines() if l.startswith(CERTIFICATE_LINES)] == lines


def test_verify_env_tolerance(capsys, monkeypatch):
    monkeypatch.setenv("HKT_TOL", "1e-6")
    code, out, _ = run(capsys, "--json", "verify", "A2")
    assert code == 0
    assert json.loads(out)["tolerance"] == 1e-6


def test_unreadable_env_tolerance_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("HKT_TOL", "abc")
    code, out, err = run(capsys, "verify", "A2")
    assert code == 2
    assert out == ""
    assert err == "error: HKT_TOL takes a number, got 'abc'\n"


def test_tolerance_validation(capsys):
    code, _, err = run(capsys, "--tol", "0.5", "verify", "A2")
    assert code == 2
    assert "tolerance" in err
    code, _, err = run(capsys, "--fd-step", "1", "verify", "A2")
    assert code == 2


@pytest.mark.parametrize("step", ["1e-320", "5e-324", "2.9e-154", "0", "-1e-4", "nan"])
def test_fd_step_below_the_normal_floats_is_refused(capsys, step):
    """A subnormal step gave nijenhuis "nan" (1e-320) or 1.41 (5e-324): the
    step must keep (step/2)**2 a normal float."""
    code, out, err = run(capsys, "--json", f"--fd-step={step}", "verify", "A2xB3xU1^3")
    assert code == 2
    assert out == ""
    assert "fd-step must lie in [2.98e-154, 1e-2]" in err and "normal float" in err


def test_fd_step_at_the_minimum_certifies(capsys):
    code, out, _ = run(capsys, "--json", "--fd-step", repr(MIN_FD_STEP), "verify", "A2xB3xU1^3")
    assert code == 0
    residuals = json.loads(out)["residuals"].values()
    assert all(r["nijenhuis"] <= 1e-5 for r in residuals)


# ---------------------------------------------------------------------------
# classify / catalog

def test_classify_a7(capsys):
    code, out, _ = run(capsys, "classify", "A", "7")
    assert code == 0
    paddings = {}
    for line in out.splitlines():
        if line.startswith("SU("):
            name, _rank, _dim, pad, _tot = line.split()
            paddings[name] = int(pad)
    assert paddings == {"SU(2)": 1, "SU(3)": 0, "SU(4)": 1, "SU(5)": 0,
                        "SU(6)": 1, "SU(7)": 0, "SU(8)": 1}


def test_classify_c1(capsys):
    code, out, _ = run(capsys, "classify", "C", "1")
    assert code == 0
    assert "Sp(1)" in out and " 1" in out


def test_classify_out_of_range(capsys):
    code, _, err = run(capsys, "classify", "D", "9")
    assert code == 2


@pytest.mark.parametrize("family,max_rank,first", [("A", "-3", 1), ("D", "2", 3)])
def test_classify_below_first_rank(capsys, family, max_rank, first):
    code, out, err = run(capsys, "classify", family, max_rank)
    assert code == 2 and not out
    assert f"first classified rank of family {family} ({first})" in err


def test_catalog_a3_verify(capsys):
    code, out, _ = run(capsys, "catalog", "A", "3", "--verify")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 4
    assert all("certified" in l for l in lines)


def test_catalog_rejects_negative_max_level(capsys):
    code, out, err = run(capsys, "catalog", "A", "8", "-3")
    assert code == 2 and not out
    assert "max_level" in err
    code, out, _ = run(capsys, "catalog", "A", "8", "0")
    assert code == 0
    assert out.splitlines() == ["SU(9)                                        [A8]"]


@pytest.mark.parametrize("command", ["catalog", "classify"])
def test_unknown_family_reads_as_the_library_refuses_it(capsys, command):
    code, out, err = run(capsys, command, "Q", "3")
    assert (code, out) == (2, "")
    for call in (lambda: spaces.enumerate_quotients(("Q", 3)),
                 lambda: spaces.classify_family("Q", 3), lambda: rootsys.root_chain("Q", 3)):
        with pytest.raises(rootsys.UnsupportedAlgebraError) as exc:
            call()
        assert err == f"error: {exc.value}\n"


def test_catalog_json(capsys):
    code, out, _ = run(capsys, "--json", "catalog", "B", "3")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 4
    assert cli.canonical_json(doc) == out.strip()


def test_jobs_is_not_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--jobs", "2", "catalog", "A", "2", "--verify"])
    assert exc.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: hkt") and "\nhkt: error: " in err
    assert "--jobs" not in cli.build_parser().format_help()


def nijenhuis_by_space(out):
    return {d["name"]: [r["nijenhuis"] for r in d["residuals"].values()]
            for d in json.loads(out)}


def test_catalog_runs_nijenhuis_only_with_explicit_fd_step(capsys):
    code, out, _ = run(capsys, "--json", "--fd-step", "1e-3", "catalog", "A", "3", "--verify")
    assert code == 0
    rows = nijenhuis_by_space(out)
    group = rows.pop("SU(4) x U(1)")
    assert all(v is not None and v <= 1e-5 for v in group)
    assert rows and all(v is None for vals in rows.values() for v in vals)  # quotients

    code, out, _ = run(capsys, "--json", "catalog", "A", "3", "--verify")
    assert code == 0
    assert all(v is None for vals in nijenhuis_by_space(out).values() for v in vals)


def test_verify_defaults_fd_step(capsys):
    _, out, _ = run(capsys, "--json", "verify", "A2")
    default = [r["nijenhuis"] for r in json.loads(out)["residuals"].values()]
    _, out, _ = run(capsys, "--json", "--fd-step", "1e-4", "verify", "A2")
    assert default == [r["nijenhuis"] for r in json.loads(out)["residuals"].values()]
    assert all(v is not None for v in default)


def test_cli_import_leaves_scipy_out():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, hktlie.cli; "
             "print([m for m in sys.modules if m.split('.')[0] in ('scipy', 'fractions')])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_certificate_path_leaves_numpy_ma_out():
    """np.unique imports numpy.ma (15 ms, 2 MB per process); the kernels sort
    instead, on the quotient path, the Nijenhuis path and a verified catalog.
    None of them imports a process pool either."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import contextlib, io, sys; from hktlie import cli\n"
             "for argv in (['verify', 'A3xU1^1/A1:beta,u1'], ['verify', 'A3xU1^1'],\n"
             "             ['catalog', 'B', '3', '--verify']):\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        code = cli.main(['--json'] + argv)\n"
             "    print(code, 'numpy.ma' in sys.modules,\n"
             "          'concurrent.futures.process' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.split("\n") == ["0 False False"] * 3 + [""]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
@pytest.mark.parametrize("preset", [None, "3"])
def test_cli_runs_one_blas_thread_unless_told_otherwise(preset):
    """With neither OPENBLAS_NUM_THREADS nor OMP_NUM_THREADS set, `cli.main`
    sets both to 1 before numpy loads, and a certification runs in one
    thread; a value the user set is left as it is."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = src
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = ("import contextlib, io, os, re; from hktlie import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = cli.main(['--json', 'verify', 'A2'])\n"
             "status = open('/proc/self/status').read()\n"
             "print(code, os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'],\n"
             "      re.search(r'Threads:\\s*(\\d+)', status).group(1))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    code, blas, omp, threads = out.split()
    assert (code, blas, omp) == ("0", preset or "1", "1")
    if preset is None:
        assert threads == "1"
NUMERIC = ("numpy", "hktlie.liealg", "hktlie.cstruct", "hktlie.autom")

#: commands that certify nothing, with their exit codes
COLD_COMMANDS = [
    (["--json", "roots", "B3"], 0), (["--json", "classify", "A", "8"], 0),
    (["--json", "catalog", "A", "8"], 0), (["--help"], 0),
    (["--json", "verify", "A3"], 3), (["verify", "A9"], 2),
    (["--json", "verify", "A3xU1^1/A1:zeta"], 2), (["--fd-step", "1", "verify", "A2"], 2),
]

_NUMERIC_PROBE = (
    "import contextlib, io, sys\n"
    "{block}"
    "import hktlie, hktlie.cli\n"
    "def loaded():\n"
    "    return [m for m in {watched!r} if sys.modules.get(m) is not None]\n"
    "print(loaded())\n"
    "for argv in {argvs!r}:\n"
    "    with contextlib.redirect_stdout(io.StringIO()) as out, \\\n"
    "            contextlib.redirect_stderr(io.StringIO()):\n"
    "        try:\n"
    "            code = hktlie.cli.main(argv)\n"
    "        except SystemExit as exc:      # --help\n"
    "            code = exc.code\n"
    "    print(code, '\"certified\"' in out.getvalue())\n"
    "print(loaded())\n")


def _numeric_probe(argvs, block_numpy, watched=NUMERIC):
    """Run `argvs` through `cli.main` in a fresh interpreter; the lines are the
    `watched` modules loaded after the import, each command's exit code and
    whether it certified, and the `watched` modules loaded at the end."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = _NUMERIC_PROBE.format(block="sys.modules['numpy'] = None\n" if block_numpy else "",
                                  watched=watched, argvs=argvs)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return out.splitlines()


def test_cold_commands_load_no_numpy():
    """With numpy unimportable, every command that certifies nothing runs and
    gives its exit code, and neither the package nor the CLI module, nor
    any of those commands, loads numpy or the numeric layers."""
    lines = _numeric_probe([argv for argv, _ in COLD_COMMANDS], block_numpy=True)
    assert lines == ["[]"] + [f"{code} False" for _, code in COLD_COMMANDS] + ["[]"]


def test_verify_loads_the_numeric_layers_on_demand():
    """The positive control: a certification imports them, and certifies."""
    lines = _numeric_probe([["--json", "verify", "A2"]], block_numpy=False)
    assert lines == ["[]", "0 True", str(list(NUMERIC))]


#: the front end's layers; `import hktlie.cli` needs none
FRONT = ("hktlie.rootsys", "hktlie.spaces", "dataclasses", "json")

#: what no command loads: the records are plain classes, and `canonical_json`
#: quotes its own strings
UNUSED = ("dataclasses", "json")


def test_help_and_usage_errors_load_no_layer():
    """The import, `--help`, a parse error and a rank-cap error load neither
    `rootsys` nor `spaces`."""
    argvs = [["--help"], ["verify", "Q2"], ["roots", "B9"]]
    lines = _numeric_probe(argvs, block_numpy=True, watched=FRONT)
    assert lines == ["[]", "0 False", "2 False", "2 False", "[]"]


def test_roots_loads_rootsys_alone():
    lines = _numeric_probe([["roots", "B3"], ["--json", "roots", "B3"]], block_numpy=True,
                           watched=FRONT)
    assert lines == ["[]", "0 False", "0 False", "['hktlie.rootsys']"]


def test_certifications_load_neither_dataclasses_nor_json():
    lines = _numeric_probe([["--json", "verify", "A8"], ["--json", "catalog", "A", "3", "--verify"]],
                           block_numpy=False, watched=UNUSED)
    assert lines == ["[]", "0 True", "0 True", "[]"]


def test_library_triple_loads_neither_dataclasses_nor_json():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    probe = ("import sys\n"
             "from hktlie import build_matrix_rep, build_quaternion_triple\n"
             "result = build_quaternion_triple(build_matrix_rep('B', 4, 4))\n"
             f"print(result.certified, [m for m in {UNUSED!r} if m in sys.modules])\n")
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True, timeout=60).stdout
    assert out.splitlines() == ["True []"]


# ---------------------------------------------------------------------------
# spec-string grammar details

def test_parse_space_strings():
    spec = cli.parse_space_string("A2")
    assert spec.factors == (("A", 2),) and spec.u1_count == 0
    spec = cli.parse_space_string("A3xU1^1")
    assert spec.u1_count == 1
    spec = cli.parse_space_string("A1xA2xU1^2")
    assert spec.factors == (("A", 1), ("A", 2)) and spec.u1_count == 2
    spec = cli.parse_space_string("B3xU1^2/A1:gamma")
    assert spec.selections[0].summands == ("A1:gamma",)
    assert not spec.selections[0].include_abelian
    spec = cli.parse_space_string("A6/A4")
    assert spec.selections[0].summands == ("A4:011110",)
    spec = cli.parse_space_string("A2xU1^1/u1")
    assert spec.selections[0].include_abelian
    assert spec.selections[0].summands == ()


def test_enumerated_specs_round_trip_through_strings():
    for factor in CLI_RANGE:
        for spec in spaces.enumerate_quotients(factor):
            text = cli._spec_to_string(spec)
            assert cli.parse_space_string(text) == spec, text


def test_abelian_quotients_above_level_one_certify():
    """The specs whose string once lost the level of their Abelian part."""
    deep = {}
    for factor in CLI_RANGE:
        for spec in spaces.enumerate_quotients(factor):
            sel = spec.selections[0] if spec.selections else None
            if sel and sel.include_abelian and not sel.summands and sel.level > 1:
                deep.setdefault(factor, []).append(cli._spec_to_string(spec))
    assert {f"{f}{r}": len(v) for (f, r), v in deep.items()} == {
        "A4": 1, "A5": 1, "A6": 2, "A7": 2, "A8": 3, "D5": 1}
    assert deep[("A", 8)] == ["A8xU1^1/u1@2", "A8xU1^1/u1@3", "A8xU1^1/u1@4"]
    for texts in deep.values():
        for text in texts:
            report = spaces.build_coset_triple(cli.parse_space_string(text))
            assert report.verdict == "certified", (text, report.message)


def test_abelian_level_token():
    spec = cli.parse_space_string("A5xU1^1/u1@2")
    assert spec.selections == (spaces.LevelSelection(2, (), True),)
    assert cli.parse_space_string("A3xU1^1/A1:beta,u1@1") == cli.parse_space_string(
        "A3xU1^1/A1:beta,u1")
    for bad in ("A5xU1^1/u1@0", "A5xU1^1/u1@9", "A3xU1^1/A1:beta,u1@2",
                "A2xU1^1/U1^7", "A2xU1^1/U1^1", "D4xU1^4/u1", "A1xU1^1/u1"):
        with pytest.raises(cli.SpecParseError):
            cli.parse_space_string(bad)


#: digits outside ASCII, which `\d` and int() would read: a fullwidth three,
#: an Arabic-Indic three, one and two
NON_ASCII_DIGITS = ("A\uff13xU1^1", "A\u0663", "A2xU1^\u0661", "A5xU1^1/u1@\u0662")


def test_parse_rejects_garbage():
    for bad in ("", "X9", "A2/u1/u1", "A2x", "B3/A1:alpha,A4", *NON_ASCII_DIGITS):
        with pytest.raises(cli.SpecParseError):
            cli.parse_space_string(bad)


@pytest.mark.parametrize("argv", [["verify", NON_ASCII_DIGITS[0]], ["roots", NON_ASCII_DIGITS[1]],
                                  ["verify", NON_ASCII_DIGITS[2]], ["verify", NON_ASCII_DIGITS[3]]])
def test_non_ascii_digits_are_a_parse_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


#: each numeric argument and HKT_TOL with a non-ASCII digit, which int() and
#: float() would read: an Arabic-Indic three and two, a fullwidth one
NON_ASCII_NUMBERS = [
    (["catalog", "A", "\u0663"], {}), (["classify", "A", "\u0663"], {}),
    (["catalog", "A", "3", "\u0662"], {}), (["--tol", "\uff11e-9", "verify", "A2"], {}),
    (["--fd-step", "\uff11e-4", "verify", "A2"], {}), (["verify", "A2"], {"HKT_TOL": "\uff11e-9"}),
]


@pytest.mark.parametrize("argv,env", NON_ASCII_NUMBERS, ids=[
    "catalog-rank", "classify-max_rank", "catalog-max_level", "tol", "fd-step", "HKT_TOL"])
def test_non_ascii_numbers_are_a_usage_error(argv, env):
    """Exit 2 with an error, in a fresh interpreter where importing numpy
    fails, so no command ran."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    probe = ("import sys\nsys.modules['numpy'] = None\nimport hktlie.cli\n"
             "sys.exit(hktlie.cli.main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src, **env), timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "error: " in proc.stderr and "Traceback" not in proc.stderr


def test_rank_cap_checked_before_any_chain(monkeypatch):
    """A factor above the cap is refused before its root system is built."""
    def refuse(*args):
        raise AssertionError("root system built for a factor above the cap")

    monkeypatch.setattr(rootsys, "build_root_system", refuse)
    monkeypatch.setattr(rootsys, "root_chain", refuse)
    for text in ("A60/u1", "A60", "A2xD9"):
        with pytest.raises(cli.SpecParseError, match="outside the supported range"):
            cli.parse_space_string(text)


#: the grammar's tokens: factors up to rank 4 (B1 and D2 below their family's
#: first rank), one factor far above the cap, u(1) factors, the separators,
#: summand labels and the Abelian items
GRAMMAR_TOKENS = (
    "A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4", "C2", "C3", "C4", "D2", "D3", "D4",
    "A60", "U1", "U1^1", "U1^3", "u1^9", "x", "/", ",",
    "A1", "A1:alpha", "A1:beta", "A1:gamma", "A2:11", "A3", "B2", "C3", "A4:011110",
    "u1", "u1@1", "u1@2", "u1@9",
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(GRAMMAR_TOKENS), max_size=7).map("".join))
def test_verify_any_token_string_ends_in_an_exit_code(text):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", text])
    assert code in (cli.EXIT_OK, cli.EXIT_FAILED, cli.EXIT_USAGE, cli.EXIT_NOT_ADMISSIBLE)


#: GRAMMAR_TOKENS by the place they take in a space string
SIMPLE_TOKENS = tuple(t for t in GRAMMAR_TOKENS if cli._FACTOR_RE.match(t))
CIRCLE_TOKENS = tuple(t for t in GRAMMAR_TOKENS if cli._U1_RE.match(t))
QUOTIENT_TOKENS = GRAMMAR_TOKENS[GRAMMAR_TOKENS.index(",") + 1:]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(SIMPLE_TOKENS), min_size=1, max_size=2),
       st.lists(st.sampled_from(CIRCLE_TOKENS), max_size=2),
       st.lists(st.sampled_from(QUOTIENT_TOKENS), max_size=2))
def test_accepted_strings_round_trip_through_canonical_strings(simple, circles, quotient):
    text = "x".join(simple + circles) + ("/" + ",".join(quotient) if quotient else "")
    try:
        spec = cli.parse_space_string(text)
    except cli.SpecParseError:
        return
    spaces._resolve_spec(spec)          # every space the parser accepts resolves
    assert cli.parse_space_string(cli._spec_to_string(spec)) == spec, text


@pytest.mark.parametrize("text,message", [
    ("A5xU1^1/u1@0", "no centralizer at level 0; A5 has levels 1 to 3"),
    ("A5xU1^1/u1@9", "no centralizer at level 9; A5 has levels 1 to 3"),
    ("D4xU1^4/u1",
     "no Abelian part at level 1: the centralizer at chain node(s) D4 is semisimple"),
    ("A3xU1^1/A1:gamma", "unknown summand 'A1:gamma'; available: ['A1:beta'], "
                         "or u1 / u1@L for the Abelian part"),
    # the rules of `spaces`, with its texts
    ("A2xA3/A1", "quotient selections are only supported for a single simple factor"),
    ("A5xU1^1/A1,A3", "a quotient sits at one level; got 2 selections"),
])
def test_rejected_quotient_error_texts(capsys, text, message):
    code, out, err = run(capsys, "verify", text)
    assert (code, out, err) == (cli.EXIT_USAGE, "", f"error: {message}\n")


def test_ambiguous_summand_needs_label():
    with pytest.raises(cli.SpecParseError, match="ambiguous"):
        cli.parse_space_string("B3xU1^2/A1")


def _parsed(family, rank, label):
    """The node label that the parser reads `label` as, or its error text."""
    try:
        return cli.parse_space_string(f"{family}{rank}/{label}").selections[0].summands[0]
    except cli.SpecParseError as exc:
        return str(exc)


def _resolved(levels, level, label):
    """The node label that the library resolves `label` at `level` to, or its error text."""
    try:
        tops, _ = spaces._resolve_selections(levels, (spaces.LevelSelection(level, (label,)),))
        return tops[0].label
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("family,rank", CLI_RANGE)
def test_parser_and_library_read_every_label_alike(family, rank):
    """Each node's full label, its shape alone and an unknown label, at each
    level: the same node both ways, or the same error text both ways."""
    _, levels = rootsys.root_chain(family, rank)
    for level, nodes in enumerate(levels[1:], start=1):
        for node in nodes:
            for label in (node.label, node.label.split(":")[0], f"{node.label}x"):
                assert _parsed(family, rank, label) == _resolved(levels, level, label), label
            assert _resolved(levels, level, node.label) == node.label


@pytest.mark.parametrize("family,rank", CLI_RANGE)
def test_catalog_certificates_agree_on_the_k_route(capsys, family, rank):
    """K = I J and the K-kind automorphisms give the same K on the tangent
    directions of every catalog space, quotients included."""
    code, out, _ = run(capsys, "--json", "catalog", family, str(rank), "--verify")
    assert code == cli.EXIT_OK
    assert max(doc["k_mismatch"] for doc in json.loads(out)) <= 1e-12


def test_canonical_json_formatting():
    s = cli.canonical_json({"b": 0.1, "a": [1, None, True], "c": "x"})
    assert s == '{"a":[1,null,true],"b":0.10000000000000001,"c":"x"}'
    assert cli.canonical_json(json.loads(s)) == s


def test_quoter_is_json_dumps_on_every_code_point():
    """`canonical_json` quotes a string byte for byte as json.dumps does with
    ensure_ascii: every code point below 0x10000, lone surrogates included,
    and astral characters as surrogate pairs, as values and as keys."""
    for n in range(0x10000):
        assert cli.canonical_json(chr(n)) == json.dumps(chr(n)), hex(n)
    for text in ("\U00010000", "\U0001F600", "\U0010FFFF", "a\U0001D11E\"b\\\x7f\u00e9\n",
                 "plain ASCII", ""):
        assert cli.canonical_json([text, {text: 1}]) == json.dumps([text, {text: 1}],
                                                                   separators=(",", ":"))


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_quoter_is_json_dumps_on_text(text):
    assert cli.canonical_json(text) == json.dumps(text)


def test_catalog_verify_json_full_reports(capsys):
    code, out, _ = run(capsys, "--json", "catalog", "A", "2", "--verify")
    assert code == 0
    docs = json.loads(out)
    assert len(docs) == 2
    assert all(d["verdict"] == "certified" for d in docs)
    assert all("residuals" in d and "basic_roots" in d for d in docs)
    assert cli.canonical_json(docs) == out.strip()


def test_verify_residual_failure_exit_code(capsys):
    # machine-precision rounding cannot beat a 1e-18 tolerance; it shows in J's snap
    code, out, _ = run(capsys, "--tol", "1e-18", "verify", "A2")
    assert code == 1
    assert "verdict: failed (J.snap 2.2e-16 above 1e-18)" in out
    code, out, _ = run(capsys, "--json", "--tol", "1e-18", "verify", "A2")
    assert code == 1
    assert json.loads(out)["message"] == "J.snap 2.2e-16 above 1e-18"


def test_catalog_max_residual_covers_the_failing_check(capsys):
    """A row's max residual is at least the snap of J that fails it."""
    _, out, _ = run(capsys, "--json", "--tol", "1e-18", "catalog", "A", "2", "--verify")
    snap = {d["name"]: d["residuals"]["J"]["snap"] for d in json.loads(out)}
    code, out, _ = run(capsys, "--tol", "1e-18", "catalog", "A", "2", "--verify")
    assert code == cli.EXIT_FAILED
    rows = out.splitlines()
    assert len(rows) == len(snap) == 2
    for row in rows:
        name = row.partition(" [")[0].rstrip()
        assert f"failed (J.snap {snap[name]:.2g} above 1e-18)" in row
        shown = float(row.rpartition("(max residual ")[2].rstrip(")"))
        assert shown >= float(f"{snap[name]:.2e}")


#: the keys of a certificate that are not checks
CERTIFICATE_DATA = {"name", "factors", "u1_count", "quotient", "dimension", "padding_required",
                    "basic_roots", "automorphisms", "residuals", "verdict", "tolerance",
                    "message"}


@pytest.mark.parametrize("space,verdict", [
    ("A2", "certified"), ("B3xU1^2/A1:gamma", "certified"),
    ("A2xB3xU1^3", "certified"), ("A3", "not-admissible")])
def test_certificate_keys_follow_the_bounds_table(capsys, space, verdict):
    """Every check of a certificate is a BOUNDS or RECORDED name: the
    triple's own at the top level, each structure's under residuals[X],
    printed in BOUNDS order."""
    from hktlie.cstruct import BOUNDS, RECORDED, STRUCTURE_CHECKS
    _, out, _ = run(capsys, "--json", "verify", space)
    doc = json.loads(out)
    assert doc["verdict"] == verdict
    triple_checks = [k for k in BOUNDS if k not in STRUCTURE_CHECKS]
    assert set(doc) - CERTIFICATE_DATA == set(triple_checks) | set(RECORDED)
    _, text, _ = run(capsys, "verify", space)
    lines = [line for line in text.splitlines() if line.startswith("residuals[")]
    if verdict == "not-admissible":
        assert doc["residuals"] == {} and lines == []
        assert all(doc[k] == "inf" for k in triple_checks + list(RECORDED))
        return
    assert set(doc["residuals"]) == {"I", "J", "K"} and len(lines) == 3
    for name, line in zip("IJK", lines):
        assert line.startswith(f"residuals[{name}]: ")
        assert [item.split("=")[0] for item in line.split(": ", 1)[1].split()] == \
            list(STRUCTURE_CHECKS)
        assert set(doc["residuals"][name]) == set(STRUCTURE_CHECKS)


@pytest.mark.parametrize("argv", [
    ["roots", "A8"], ["--json", "verify", "A2"], ["--json", "verify", "A3"], ["verify", "A3"]])
def test_closed_stdout_exits_141_quietly(argv):
    """With the reader of stdout gone before the command writes, `hkt`
    prints nothing to stderr and exits 141, as a shell reports after
    SIGPIPE, whatever the command's own exit code."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "hktlie.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
                              timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_BROKEN_PIPE, b"")
